"""Benchmark of record: five workloads, end-to-end and per-layer metrics.

Run every workload, each in fresh single-threaded subprocesses, print
each end-to-end metric as ``workload metric median unit (IQR, n)``, run
the correctness checks and write a JSON result file::

    python bench/run.py [--seed S] [--reps 3] [--trace] [--quick] [--only W] [--out F]

``--trace`` adds one traced run per workload and prints the per-layer
metrics; ``--quick`` makes each run a single, smaller call (a smoke
test).  The exit status is 1 when any check fails.

Run one workload once, in this process; the last line of stdout is the
JSON result ``{"correct", "attempted", "failed", "metrics"}`` with the
metrics ``BENCHMARK.json`` lists (end-to-end, or per-layer with
``--trace 1``)::

    python bench/run.py --workload W --seed S --seconds T --trace 0|1 [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from catalog import END_TO_END, LAYERS, OPS_SOURCE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DETAIL = "BENCH-DETAIL "


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def harness_metrics(spec: dict, record: dict) -> dict:
    """The metrics ``BENCHMARK.json`` declares, taken from one run record."""
    if record["trace"]:
        return {
            m["name"]: {"value": record["layers"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    e2e = record["e2e"]
    return {
        m["name"]: {
            "value": e2e[OPS_SOURCE[record["workload"]] if m["name"] == "ops_per_s" else m["name"]],
            "unit": m["unit"],
        }
        for m in spec["end_to_end"]
    }


def run_one(args, spec: dict) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from workloads import measure  # numpy loads only after the variables are set

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    record = measure(
        args.workload, args.seed, seconds, trace=bool(args.trace), quick=args.quick
    )
    print(DETAIL + json.dumps(record), flush=True)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": harness_metrics(spec, record),
    }
    print(json.dumps(result), flush=True)
    return 0 if record["correct"] else 1


# ---------------------------------------------------------------------------
# All workloads, in subprocesses
# ---------------------------------------------------------------------------


def child(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One run in a fresh process; its record, or an error record."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    details = [line for line in proc.stdout.splitlines() if line.startswith(DETAIL)]
    if not details:
        error = proc.stderr.strip().splitlines()[-1:] or [f"exit status {proc.returncode}"]
        return {"workload": name, "seed": seed, "trace": trace, "correct": False,
                "error": error[0], "checks": []}
    return json.loads(details[-1][len(DETAIL):])


def summarize(values: list[float]) -> dict:
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    return {"median": mid, "q1": q1, "q3": q3, "n": len(values), "values": values}


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
    }


def run_all(args, spec: dict) -> int:
    names = [args.only] if args.only else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else float(spec["run_seconds"])
    result = {
        "machine": machine(),
        "command": sys.argv[1:],
        "seed": args.seed,
        "reps": args.reps,
        "seconds": seconds,
        "quick": args.quick,
        "workloads": {},
    }
    all_valid = True
    for name in names:
        runs = [child(name, args.seed + r, seconds, 0, args.quick) for r in range(args.reps)]
        entry = {"runs": runs, "e2e": {}}
        for metric, spec_metric in END_TO_END.items():
            values = [r["e2e"][metric] for r in runs if metric in r.get("e2e", {})]
            if values:
                entry["e2e"][metric] = {"unit": spec_metric.unit, **summarize(values)}
        if args.trace:
            traced = child(name, args.seed, seconds, 1, args.quick)
            runs.append(traced)
            entry["layers"] = traced.get("layers", {})
            entry["unhooked"] = traced.get("unhooked", [])
            entry["spans"] = traced.get("spans")
        failures = [
            f"{c['name']}: {c['detail']}" for r in runs for c in r["checks"] if not c["ok"]
        ] + [f"run failed: {r['error']}" for r in runs if "error" in r]
        entry["valid"] = not failures
        all_valid &= entry["valid"]
        result["workloads"][name] = entry
        report(name, entry, failures)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"result -> {os.path.relpath(args.out)}")
    return 0 if all_valid else 1


def report(name: str, entry: dict, failures: list[str]) -> None:
    for metric, s in entry["e2e"].items():
        note = f"n={s['n']}"
        if metric.startswith("solve_p"):
            samples = [r["solve_samples"] for r in entry["runs"] if "solve_samples" in r]
            note += f"; {min(samples)}+ solves per run"
        print(
            f"{name:15s} {metric:13s} {s['median']:.6g} {s['unit']} "
            f"(IQR {s['q3'] - s['q1']:.3g}, {note})"
        )
    for metric, value in entry.get("layers", {}).items():
        print(f"{name:15s} {metric:31s} {value:.6g} {LAYERS[metric].unit}")
    for skipped in entry.get("unhooked", []):
        print(f"{name:15s} unhooked {skipped['target']}: {skipped['reason']}")
    for failure in failures:
        print(f"{name:15s} CHECK FAILED {failure}")
    print(f"{name:15s} {'valid' if not failures else 'INVALID'}", flush=True)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload once, here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="host seconds per run (default: run_seconds of BENCHMARK.json; 0 with --quick)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer metrics from a traced run",
    )
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes")
    parser.add_argument("--reps", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--only", choices=names, help="run just this workload")
    parser.add_argument("--out", default=os.path.join(HERE, "out", "result.json"))
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
