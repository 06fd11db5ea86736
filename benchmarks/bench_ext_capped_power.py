"""Extension bench: capped routing and power-budget speed scaling.

Two deployment-flavored extensions of the paper's optimizer:

* ``solve_capped`` — optimal distribution when operators impose
  per-server rate ceilings; measures the price of throttling the
  fastest server on the Example 1 system, and gates a capped solve at
  n = 500 to at most 2x ``solve_newton`` on the same group (a ratio
  within one run, asserted under ``--quick`` too).
* ``optimize_speeds_under_power`` — joint DVFS + load distribution;
  measures how the optimal speed profile and ``T'`` respond to the
  power budget on a small fleet.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.core.constrained import solve_capped
from repro.core.kkt import solve_kkt
from repro.core.newton import solve_newton
from repro.core.power import optimize_speeds_under_power
from repro.core.server import BladeServerGroup
from repro.workloads import example_group
from repro.workloads.paper import EXAMPLE_TOTAL_RATE

INF = float("inf")


def test_capped_price_of_throttling(benchmark):
    group = example_group()
    free = solve_kkt(group, EXAMPLE_TOTAL_RATE)

    def sweep():
        rows = []
        for factor in (1.0, 0.75, 0.5, 0.25):
            caps = [float(free.generic_rates[0]) * factor] + [INF] * 6
            res = solve_capped(group, EXAMPLE_TOTAL_RATE, caps)
            rows.append((factor, res.mean_response_time))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for factor, t in rows:
        print(f"  server-1 cap at {factor:.0%} of optimal: T' = {t:.7f}")
    ts = [t for _, t in rows]
    assert ts[0] == pytest.approx(free.mean_response_time, rel=1e-7)
    assert all(b >= a - 1e-12 for a, b in zip(ts, ts[1:]))  # tighter = worse


def test_capped_solver_speed(benchmark):
    group = example_group()
    caps = [2.0] * 7
    res = benchmark(solve_capped, group, EXAMPLE_TOTAL_RATE * 0.5, caps)
    assert res.total_rate == pytest.approx(EXAMPLE_TOTAL_RATE * 0.5, rel=1e-9)


def test_capped_within_2x_of_newton_at_500():
    """A capped solve is one dual ascent, so it costs what ``solve_newton`` does.

    The group has the solver-scaling study's fleet shape (sizes cycle
    1..16, speeds 0.6..1.79, 30% preload) at 60% load, with the fastest
    speed class (s >= 1.5) capped at half its optimal rate.  The gate
    compares medians of interleaved solves in this run, never raw
    seconds.
    """
    n = 500
    group = BladeServerGroup.with_special_fraction(
        sizes=[1 + (i % 16) for i in range(n)],
        speeds=[0.6 + 0.01 * (i % 120) for i in range(n)],
        fraction=0.3,
    )
    lam = 0.6 * group.max_generic_rate
    free = solve_newton(group, lam)
    caps = np.where(group.speeds >= 1.5, 0.5 * free.generic_rates, INF)
    capped = solve_capped(group, lam, caps)
    assert sum(capped.metadata["capped"]) == int((group.speeds >= 1.5).sum())
    assert capped.mean_response_time > free.mean_response_time

    def seconds(solve, *args) -> float:
        t0 = time.perf_counter()
        solve(group, lam, *args)
        return time.perf_counter() - t0

    t_newton, t_capped = [], []
    for _ in range(7):
        t_newton.append(seconds(solve_newton))
        t_capped.append(seconds(solve_capped, caps))
    ratio = statistics.median(t_capped) / statistics.median(t_newton)
    print(
        f"\n  n={n} capped/newton median time: {ratio:.2f}x "
        f"({capped.iterations} vs {free.iterations} outer iterations)"
    )
    assert ratio <= 2.0, f"capped solve {ratio:.2f}x solve_newton at n={n}"


def test_power_budget_sweep(benchmark):
    sizes = [2, 4, 6, 8]
    specials = [0.5, 1.0, 1.5, 2.0]
    lam = 6.0

    def sweep():
        rows = []
        for budget in (25.0, 40.0, 60.0, 90.0):
            res = optimize_speeds_under_power(
                sizes, specials, lam, budget, alpha=3.0
            )
            rows.append((budget, res.mean_response_time, res.speeds.copy()))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for budget, t, speeds in rows:
        print(
            f"  budget {budget:5.0f}: T' = {t:.5f}, "
            f"speeds = {np.round(speeds, 3)}"
        )
    ts = [t for _, t, _ in rows]
    # More power never hurts, and the marginal value of power shrinks.
    assert all(b <= a + 1e-9 for a, b in zip(ts, ts[1:]))
    gains = [a - b for a, b in zip(ts, ts[1:])]
    assert gains[0] >= gains[-1] - 1e-9
