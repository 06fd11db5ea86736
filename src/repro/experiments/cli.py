"""Command-line runner: ``python -m repro.experiments`` / ``repro-experiments``.

Examples
--------
List everything::

    repro-experiments --list

Reproduce Table 1 and Figure 12::

    repro-experiments table1 fig12

Reproduce all experiments at a coarser sweep::

    repro-experiments --all --points 10
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..analysis.figures import FigureSeries
from ..analysis.tables import PaperTable, render_table
from .registry import available_experiments, get_experiment

__all__ = ["main"]


def _render(result) -> str:
    if isinstance(result, PaperTable):
        return render_table(result)
    # FigureSeries and all study objects expose render().
    return result.render()


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of Li, 'Optimal Load "
            "Distribution for Multiple Heterogeneous Blade Servers in a "
            "Cloud Computing Environment'."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e.g. table1 fig4); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    parser.add_argument(
        "--points",
        type=int,
        default=25,
        help="sweep resolution for figure experiments (default 25)",
    )
    parser.add_argument(
        "--method",
        default="kkt",
        help="solver backend for figure experiments (default kkt)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="additionally write each figure experiment as <DIR>/<id>.csv",
    )
    args = parser.parse_args(argv)

    if args.list:
        for eid in available_experiments():
            exp = get_experiment(eid)
            print(f"{eid:>8}  [{exp.kind}]  {exp.description}")
        return 0

    ids = list(available_experiments()) if args.all else list(args.experiments)
    if not ids:
        parser.print_usage(file=sys.stderr)
        print(
            "error: give experiment ids, --all, or --list", file=sys.stderr
        )
        return 2
    known = available_experiments()
    for eid in ids:
        if eid.lower() not in known:
            print(f"error: unknown experiment {eid!r}; see --list", file=sys.stderr)
            return 2

    for eid in ids:
        exp = get_experiment(eid)
        if exp.kind == "figure":
            kwargs = {"points": args.points, "method": args.method}
        elif exp.kind == "table":
            kwargs = {"method": args.method}
        else:  # studies fix their own parameters
            kwargs = {}
        result = exp.run(**kwargs)
        print(_render(result))
        print()
        if args.csv is not None and isinstance(result, FigureSeries):
            out_dir = Path(args.csv)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{eid}.csv"
            path.write_text(result.to_csv())
            print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
