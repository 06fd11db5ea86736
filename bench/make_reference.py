"""Regenerate ``reference/paper_sweep.json``: the paper-sweep grid solved
with the paper's own nested bisection (``method="bisection"``).

The benchmark checks every sweep point against this file, whatever
backend ``"auto"`` picks.  It takes a few minutes::

    python bench/make_reference.py
"""

from __future__ import annotations

import json
import os

from workloads import REFERENCE, PaperSweep

import repro  # from the checkout's src/, which importing workloads put on sys.path


def main() -> None:
    groups = PaperSweep.build_groups()
    curves = {}
    for label in PaperSweep.CURVES:
        group_label, discipline = label.split("/")
        rates = PaperSweep.rates(groups[group_label])
        results = repro.solve_sweep(
            groups[group_label], rates, discipline=discipline, method="bisection"
        )
        curves[label] = {
            "rates": [float(r) for r in rates],
            "t_prime": [r.mean_response_time for r in results],
        }
        print(label, flush=True)
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"method": "bisection", "curves": curves}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
