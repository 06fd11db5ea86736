"""Integration tests: the analytical model against the DES substrate.

These are the checks the paper never ran — end-to-end agreement between
the closed-form response times / the optimizer's output and an
event-level simulation of the same system, under both disciplines.
Marked ``slow``-ish but kept under a minute total by using moderate
horizons and the guard-banded agreement criterion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.validation import validate_model
from repro.core.server import BladeServerGroup
from repro.core.solvers import dispatch
from repro.sim.engine import simulate_group
from repro.workloads import example_group


@pytest.fixture(scope="module")
def group():
    # A scaled-down Example-1-style system to keep event counts modest.
    return BladeServerGroup.with_special_fraction(
        sizes=[2, 4, 6], speeds=[1.4, 1.2, 1.0], fraction=0.3
    )


class TestModelValidation:
    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_optimum_matches_simulation(self, group, disc):
        lam = 0.5 * group.max_generic_rate
        report = validate_model(
            group,
            lam,
            disc,
            replications=3,
            horizon=8_000.0,
            warmup=800.0,
            seed=42,
            guard_band=0.02,
        )
        assert report.agrees, report.render()
        assert report.relative_error < 0.05
        assert np.max(np.abs(report.utilization_error)) < 0.02

    def test_higher_load_still_agrees(self, group):
        lam = 0.75 * group.max_generic_rate
        report = validate_model(
            group,
            lam,
            "fcfs",
            replications=3,
            horizon=8_000.0,
            warmup=800.0,
            seed=7,
            guard_band=0.03,
        )
        assert report.agrees, report.render()

    def test_render_mentions_verdict(self, group):
        lam = 0.4 * group.max_generic_rate
        report = validate_model(
            group, lam, "fcfs", replications=2, horizon=4_000.0, warmup=400.0
        )
        assert "AGREES" in report.render() or "DISAGREES" in report.render()


class TestOptimalityInSimulation:
    def test_optimal_split_beats_equal_split_empirically(self, group):
        """The optimizer's advantage must be visible in simulated reality,
        not only in the analytic formulas."""
        lam = 0.8 * group.max_generic_rate
        opt = dispatch(group, lam, "fcfs")
        kw = dict(horizon=10_000.0, warmup=1_000.0, seed=3)
        t_opt = simulate_group(
            group, lam, opt.fractions, "fcfs", **kw
        ).generic_response_time
        t_eq = simulate_group(
            group, lam, np.full(group.n, 1 / group.n), "fcfs", **kw
        ).generic_response_time
        assert t_opt < t_eq

    def test_paper_example_simulated(self):
        """One full-scale run of the Examples 1/2 system (kept short)."""
        group = example_group()
        lam = 23.52
        res = dispatch(group, lam, "fcfs")
        sim = simulate_group(
            group,
            lam,
            res.fractions,
            "fcfs",
            horizon=4_000.0,
            warmup=400.0,
            seed=1,
        )
        assert sim.generic_response_time == pytest.approx(
            res.mean_response_time, rel=0.05
        )
