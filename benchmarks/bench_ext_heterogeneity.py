"""Extension bench: the heterogeneity→T' curve, traced continuously.

Figs. 12–15 sample five hand-picked groups.  The generators in
``repro.workloads.heterogeneity`` make spread a continuous knob at fixed
aggregate capacity, so we can trace the whole curve and test the
paper's surprising claim — *more heterogeneity is (slightly) better
under optimal distribution* — as a monotonicity property rather than a
five-point observation.

Size spread uses integer blade counts (the curve is stepwise and can
have small non-monotonic kinks from rounding); speed spread is exactly
continuous, so there the monotonicity assertion is strict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.solvers import dispatch
from repro.workloads.heterogeneity import (
    scaled_size_group,
    scaled_speed_group,
    size_cv,
    speed_cv,
)


def test_size_spread_curve(benchmark):
    spreads = np.linspace(0.0, 1.0, 9)

    def sweep():
        rows = []
        for s in spreads:
            g = scaled_size_group(7, 56, float(s), speed=1.3)
            lam = 0.8 * g.max_generic_rate
            t = dispatch(g, lam).mean_response_time
            rows.append((float(s), size_cv(g), t))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for s, cv, t in rows:
        print(f"  spread {s:.3f} (size CV {cv:.3f}): T' = {t:.6f}")
    ts = [t for _, _, t in rows]
    # Net effect over the full range: heterogeneous end at least as
    # good; allow rounding kinks of 0.5% along the way.
    assert ts[-1] <= ts[0] * 1.001
    # Modest in magnitude (under ~10% across the whole spread range at
    # 80% load) but clearly directional — slightly stronger than the
    # paper's five-point figures suggest, because spread=1 is more
    # extreme than its Group 1.
    assert max(ts) / min(ts) < 1.10


def test_speed_spread_curve(benchmark):
    spreads = np.linspace(0.0, 0.9, 10)

    def sweep():
        rows = []
        for s in spreads:
            g = scaled_speed_group(7, 9.1, float(s), size=8)
            lam = 0.8 * g.max_generic_rate
            t = dispatch(g, lam).mean_response_time
            rows.append((float(s), speed_cv(g), t))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for s, cv, t in rows:
        print(f"  spread {s:.3f} (speed CV {cv:.3f}): T' = {t:.6f}")
    ts = [t for _, _, t in rows]
    # Continuous knob: strictly decreasing T' in spread (more speed
    # heterogeneity helps at fixed total speed).
    assert all(b < a for a, b in zip(ts, ts[1:]))
