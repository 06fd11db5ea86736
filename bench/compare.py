"""Compare two result files of ``bench/run.py``, parent first::

    python bench/compare.py parent.json change.json

One row per (workload, end-to-end metric): each side's median and
interquartile range, the fraction of same-seed pairs the change wins,
and a verdict:

* ``better`` — over at least 10 pairs, the change wins at least 9 in 10
  and its median is ahead by more than the parent's own IQR;
* ``worse`` — otherwise, the change's median is behind by more than the
  bound;
* ``unresolved`` — otherwise, the spread is wider than the bound and not
  every change run beats every parent run.  The spread is the larger
  side's IQR, or for a metric that repeats exactly at a fixed seed
  (``mean_t``, ``failed_frac``) the IQR of the same-seed differences;
* ``within bound`` — otherwise.

When both files hold a traced run, the per-layer metrics follow with
their relative change.  The exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

from catalog import END_TO_END, LAYERS


def _ahead(a: float, b: float, better: str) -> float:
    """How far ``b`` is ahead of ``a`` (negative when behind)."""
    return a - b if better == "lower" else b - a


def verdict(metric: str, parent: dict, change: dict) -> tuple[str, float]:
    spec = END_TO_END[metric]
    a, b = parent["values"], change["values"]
    pairs = list(zip(a, b))
    wins = sum(_ahead(x, y, spec.better) > 0 for x, y in pairs) / len(pairs)
    bound = max(spec.rel * abs(parent["median"]), spec.abs)
    ahead = _ahead(parent["median"], change["median"], spec.better)
    if spec.seeded and len(pairs) > 1:
        q1, _, q3 = statistics.quantiles([y - x for x, y in pairs], n=4)
        spread = q3 - q1
    else:
        spread = max(parent["q3"] - parent["q1"], change["q3"] - change["q1"])
    all_ahead = min(_ahead(x, y, spec.better) for x in a for y in b) > 0
    if len(pairs) >= 10 and wins >= 0.9 and ahead > parent["q3"] - parent["q1"]:
        return "better", wins
    if -ahead > bound:
        return "worse", wins
    if spread > bound and not all_ahead:
        return "unresolved", wins
    return "within bound", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        parent = json.load(fh)["workloads"]
    with open(argv[1], encoding="utf-8") as fh:
        change = json.load(fh)["workloads"]
    worse = False
    print(f"{'workload':15s} {'metric':13s} {'parent (IQR)':>22s} {'change (IQR)':>22s}  wins  verdict")
    for name in (w for w in parent if w in change):
        for metric in END_TO_END:
            a = parent[name]["e2e"].get(metric)
            b = change[name]["e2e"].get(metric)
            if a is None or b is None:
                continue
            result, wins = verdict(metric, a, b)
            worse |= result == "worse"
            print(
                f"{name:15s} {metric:13s} "
                f"{a['median']:>12.5g} ({a['q3'] - a['q1']:<7.2g})"
                f"{b['median']:>12.5g} ({b['q3'] - b['q1']:<7.2g}) "
                f"{wins:5.2f}  {result}"
            )
        la, lb = parent[name].get("layers"), change[name].get("layers")
        if la and lb:
            for metric in LAYERS:
                if metric in la and metric in lb and (la[metric] or lb[metric]):
                    delta = (lb[metric] - la[metric]) / la[metric] if la[metric] else float("inf")
                    print(
                        f"{name:15s}   {metric:31s} {la[metric]:>12.5g} -> "
                        f"{lb[metric]:<12.5g} {delta:+.1%} {LAYERS[metric].unit}"
                    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
