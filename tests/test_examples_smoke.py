"""Smoke-run every script in ``examples/`` as a subprocess.

Examples are the repo's executable documentation; this suite keeps them
executable.  Each script runs in quick mode (``REPRO_EXAMPLE_QUICK=1``
— the long-horizon examples honor it and shrink to seconds) with its
artifacts pointed at a temp directory, and must exit 0 without a
traceback.  Tier-1 (``python -m pytest``) collects this file, so CI runs
it with the rest of the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")
EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)
PER_EXAMPLE_TIMEOUT = 300.0


def test_every_example_is_covered():
    # A new example is picked up automatically; this guards against the
    # directory going missing or being emptied by accident.
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_clean(name, tmp_path):
    env = dict(os.environ)
    env["REPRO_EXAMPLE_QUICK"] = "1"
    env["REPRO_EXAMPLE_OUTDIR"] = str(tmp_path)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=PER_EXAMPLE_TIMEOUT,
    )
    assert proc.returncode == 0, (
        f"{name} exited {proc.returncode}\n"
        f"--- stdout ---\n{proc.stdout[-2000:]}\n"
        f"--- stderr ---\n{proc.stderr[-2000:]}"
    )
    assert "Traceback" not in proc.stderr
