#!/usr/bin/env python
"""Public-API snapshot: dump or verify the ``repro`` surface.

The snapshot records the curated ``repro.__all__`` (each name with the
kind of object it resolves to) and the exact signatures of the callable
entry points.  CI diffs a fresh dump against the checked-in
``docs/api_snapshot.txt`` so any drift in the public surface — a
renamed keyword, a dropped export, a widened return type — must arrive
together with a deliberate snapshot update in the same commit.

Usage::

    python scripts/check_public_api.py            # print the snapshot
    python scripts/check_public_api.py --update   # rewrite docs/api_snapshot.txt
    python scripts/check_public_api.py --check    # exit 1 on drift
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import os
import sys

SNAPSHOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "docs",
    "api_snapshot.txt",
)

#: Entry points whose exact signatures are part of the contract.
SIGNATURE_NAMES = (
    "solve",
    "solve_sweep",
    "run_closed_loop",
    "run_sharded_closed_loop",
    "solve_sharded",
    "partition_group",
    "register_method",
    "register_router",
    "random_fault_schedule",
    "restore_runtime",
)


def _kind(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj) or inspect.isbuiltin(obj):
        return "function"
    if callable(obj):
        return "callable"
    return type(obj).__name__


def render_snapshot() -> str:
    import repro

    lines = [
        "# Public API snapshot for the `repro` package.",
        "# Regenerate with: python scripts/check_public_api.py --update",
        "",
        "[exports]",
    ]
    for name in sorted(repro.__all__):
        lines.append(f"{name}: {_kind(getattr(repro, name))}")
    lines += ["", "[signatures]"]
    for name in SIGNATURE_NAMES:
        obj = getattr(repro, name)
        lines.append(f"{name}{inspect.signature(obj)}")
    lines += ["", "[configs]"]
    for cfg_name in (
        "ObsConfig",
        "RuntimeConfig",
        "RoutingConfig",
        "RecoveryConfig",
        "ShardConfig",
    ):
        cls = getattr(repro, cfg_name)
        import dataclasses

        field_names = ", ".join(f.name for f in dataclasses.fields(cls))
        lines.append(f"{cfg_name}: {field_names}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--update", action="store_true", help=f"rewrite {SNAPSHOT}"
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="diff against the checked-in snapshot; exit 1 on drift",
    )
    args = parser.parse_args(argv)

    fresh = render_snapshot()
    if args.update:
        with open(SNAPSHOT, "w", encoding="utf-8") as fh:
            fh.write(fresh)
        print(f"wrote {SNAPSHOT}")
        return 0
    if args.check:
        try:
            with open(SNAPSHOT, encoding="utf-8") as fh:
                recorded = fh.read()
        except FileNotFoundError:
            print(f"missing snapshot {SNAPSHOT}; run with --update", file=sys.stderr)
            return 1
        if recorded == fresh:
            print("public API matches the recorded snapshot")
            return 0
        diff = difflib.unified_diff(
            recorded.splitlines(keepends=True),
            fresh.splitlines(keepends=True),
            fromfile="docs/api_snapshot.txt (recorded)",
            tofile="live public API",
        )
        sys.stderr.write("".join(diff))
        sys.stderr.write(
            "\npublic API drifted from the snapshot; if intentional, run\n"
            "  python scripts/check_public_api.py --update\n"
            "and commit the refreshed docs/api_snapshot.txt.\n"
        )
        return 1
    sys.stdout.write(fresh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
