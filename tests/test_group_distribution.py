"""Tests for the group-level (mixture) response-time distribution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import (
    GroupResponseTimeDistribution,
    ResponseTimeDistribution,
)
from repro.core.exceptions import ParameterError
from repro.core.solvers import dispatch
from repro.workloads import example_group


@pytest.fixture(scope="module")
def mixture():
    group = example_group()
    res = dispatch(group, 23.52, "fcfs")
    return GroupResponseTimeDistribution.from_distribution(group, res), res


class TestMixtureStructure:
    def test_mean_equals_paper_t_prime(self, mixture):
        dist, res = mixture
        assert dist.mean == pytest.approx(res.mean_response_time, rel=1e-12)

    def test_sf_is_valid_tail(self, mixture):
        dist, _ = mixture
        ts = np.linspace(0.0, 20.0, 50)
        sfs = [dist.sf(float(t)) for t in ts]
        assert sfs[0] == pytest.approx(1.0)
        assert all(0.0 <= s <= 1.0 for s in sfs)
        assert all(b <= a + 1e-15 for a, b in zip(sfs, sfs[1:]))

    def test_quantile_inverts_cdf(self, mixture):
        dist, _ = mixture
        for p in (0.1, 0.5, 0.9, 0.95, 0.99):
            t = dist.quantile(p)
            assert dist.cdf(t) == pytest.approx(p, abs=1e-9)

    def test_quantile_bracketed_by_components(self, mixture):
        dist, res = mixture
        group = example_group()
        comps = [
            ResponseTimeDistribution(
                srv.size, srv.xbar(group.rbar), float(res.utilizations[i])
            )
            for i, srv in enumerate(group.servers)
        ]
        for p in (0.5, 0.95):
            q = dist.quantile(p)
            qs = [c.quantile(p) for c in comps]
            assert min(qs) <= q <= max(qs)

    def test_mixture_quantile_differs_from_weighted_average(self, mixture):
        # The statistical point of the class: quantiles do not average.
        dist, res = mixture
        group = example_group()
        weighted = sum(
            float(res.fractions[i])
            * ResponseTimeDistribution(
                srv.size, srv.xbar(group.rbar), float(res.utilizations[i])
            ).quantile(0.95)
            for i, srv in enumerate(group.servers)
        )
        assert dist.quantile(0.95) != pytest.approx(weighted, rel=1e-4)

    def test_pdf_matches_cdf_derivative(self, mixture):
        dist, _ = mixture
        h = 1e-6
        for t in (0.5, 1.5, 4.0):
            fd = (dist.cdf(t + h) - dist.cdf(t - h)) / (2 * h)
            assert dist.pdf(t) == pytest.approx(fd, rel=1e-5)

    def test_single_component_degenerates(self):
        comp = ResponseTimeDistribution(4, 1.0, 0.7)
        dist = GroupResponseTimeDistribution([comp], [1.0])
        for t in (0.5, 2.0):
            assert dist.sf(t) == pytest.approx(comp.sf(t), rel=1e-12)
        assert dist.quantile(0.9) == pytest.approx(comp.quantile(0.9), rel=1e-9)


class TestValidation:
    def test_weight_sum_checked(self):
        comp = ResponseTimeDistribution(2, 1.0, 0.5)
        with pytest.raises(ParameterError):
            GroupResponseTimeDistribution([comp, comp], [0.5, 0.6])

    def test_negative_weight_rejected(self):
        comp = ResponseTimeDistribution(2, 1.0, 0.5)
        with pytest.raises(ParameterError):
            GroupResponseTimeDistribution([comp, comp], [-0.5, 1.5])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            GroupResponseTimeDistribution([], [])

    def test_length_mismatch_rejected(self):
        comp = ResponseTimeDistribution(2, 1.0, 0.5)
        with pytest.raises(ParameterError):
            GroupResponseTimeDistribution([comp], [0.5, 0.5])

    def test_bad_quantile_p(self, mixture):
        dist, _ = mixture
        with pytest.raises(ParameterError):
            dist.quantile(1.0)

    def test_zero_rate_servers_skipped(self):
        # Build a result with a parked server; from_distribution must
        # drop it rather than construct a zero-weight component.
        from repro.core.server import BladeServerGroup

        g = BladeServerGroup.from_arrays([4, 1], [2.0, 0.1], [0.0, 0.05])
        res = dispatch(g, 0.5, "fcfs")
        assert res.generic_rates[1] == pytest.approx(0.0, abs=1e-9)
        dist = GroupResponseTimeDistribution.from_distribution(g, res)
        assert len(dist._parts) == 1


class TestAgainstSimulation:
    def test_group_percentiles_match_simulation(self):
        from repro.core.server import BladeServerGroup
        from repro.sim.engine import GroupSimulation, SimulationConfig
        from repro.sim.task import TaskClass

        group = BladeServerGroup.from_arrays([2, 4], [1.4, 1.0])
        lam = 0.75 * group.max_generic_rate
        res = dispatch(group, lam, "fcfs")
        dist = GroupResponseTimeDistribution.from_distribution(group, res)
        config = SimulationConfig(
            total_generic_rate=lam,
            fractions=tuple(res.fractions),
            horizon=15_000.0,
            warmup=1_500.0,
            seed=21,
        )
        out = GroupSimulation(group, config, collect_tasks=True).run()
        samples = np.array(
            [
                t.response_time
                for t in out.task_log
                if t.task_class is TaskClass.GENERIC
            ]
        )
        for p in (0.5, 0.9, 0.95):
            emp = float(np.quantile(samples, p))
            assert emp == pytest.approx(dist.quantile(p), rel=0.06)
