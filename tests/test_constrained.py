"""Unit tests for repro.core.constrained (per-server rate caps)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bisection import DEFAULT_TOL
from repro.core.constrained import solve_capped
from repro.core.exceptions import InfeasibleError, ParameterError
from repro.core.kkt import solve_kkt
from repro.core.newton import rate_ceilings, solve_newton
from repro.core.objective import gradient


INF = float("inf")


class TestEquivalenceWithoutCaps:
    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    @pytest.mark.parametrize("load", [0.3, 0.7])
    def test_infinite_caps_match_unconstrained(self, paper_group, disc, load):
        lam = load * paper_group.max_generic_rate
        capped = solve_capped(paper_group, lam, [INF] * 7, disc)
        free = solve_kkt(paper_group, lam, disc)
        assert capped.mean_response_time == pytest.approx(
            free.mean_response_time, rel=1e-9
        )
        assert np.allclose(capped.generic_rates, free.generic_rates, atol=1e-6)

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    @pytest.mark.parametrize("load", [0.3, 0.7])
    def test_infinite_caps_are_the_newton_solve_bit_for_bit(
        self, paper_group, disc, load
    ):
        lam = load * paper_group.max_generic_rate
        capped = solve_capped(paper_group, lam, [INF] * 7, disc)
        free = solve_newton(paper_group, lam, disc)
        assert np.array_equal(capped.generic_rates, free.generic_rates)
        assert capped.phi == free.phi
        assert capped.mean_response_time == free.mean_response_time

    def test_loose_caps_match_unconstrained(self, paper_group):
        lam = 0.5 * paper_group.max_generic_rate
        free = solve_kkt(paper_group, lam)
        caps = free.generic_rates * 2.0  # never binding
        capped = solve_capped(paper_group, lam, caps)
        assert capped.mean_response_time == pytest.approx(
            free.mean_response_time, rel=1e-9
        )


class TestBindingCaps:
    def test_cap_binds_and_load_reroutes(self, paper_group):
        lam = 23.52
        free = solve_kkt(paper_group, lam)
        caps = [INF] * 7
        caps[0] = 0.5 * float(free.generic_rates[0])  # throttle server 1
        capped = solve_capped(paper_group, lam, caps)
        assert capped.generic_rates[0] == pytest.approx(caps[0], rel=1e-9)
        assert capped.total_rate == pytest.approx(lam, rel=1e-9)
        # Constrained optimum cannot beat the unconstrained one.
        assert capped.mean_response_time >= free.mean_response_time
        assert capped.metadata["capped"][0] is True

    def test_kkt_structure_with_caps(self, paper_group):
        lam = 23.52
        caps = [0.4, INF, INF, INF, INF, INF, INF]
        res = solve_capped(paper_group, lam, caps)
        grads = gradient(paper_group, res.generic_rates)
        free_idx = [
            i
            for i in range(7)
            if 1e-9 < res.generic_rates[i] < caps[i] * (1 - 1e-9)
        ]
        capped_idx = [
            i for i in range(7) if res.generic_rates[i] >= caps[i] * (1 - 1e-9)
        ]
        assert capped_idx == [0]
        phi = np.mean(grads[free_idx])
        # Interior servers share the multiplier...
        assert np.allclose(grads[free_idx], phi, rtol=1e-5)
        # ...while the capped server's marginal sits *below* it (it
        # would take more load if allowed).
        assert grads[0] < phi

    def test_multiple_binding_caps(self, paper_group):
        lam = 23.52
        free = solve_kkt(paper_group, lam)
        caps = [float(r) * 0.7 for r in free.generic_rates[:3]] + [INF] * 4
        res = solve_capped(paper_group, lam, caps)
        for i in range(3):
            assert res.generic_rates[i] == pytest.approx(caps[i], rel=1e-8)
        assert res.total_rate == pytest.approx(lam, rel=1e-9)

    def test_cap_of_zero_excludes_server(self, paper_group):
        lam = 20.0
        caps = [0.0] + [INF] * 6
        res = solve_capped(paper_group, lam, caps)
        assert res.generic_rates[0] == 0.0
        assert res.total_rate == pytest.approx(lam, rel=1e-9)

    def test_monotone_degradation_as_caps_tighten(self, paper_group):
        lam = 23.52
        free = solve_kkt(paper_group, lam)
        previous = free.mean_response_time
        for factor in (0.8, 0.5, 0.2):
            caps = [float(free.generic_rates[0]) * factor] + [INF] * 6
            t = solve_capped(paper_group, lam, caps).mean_response_time
            assert t >= previous - 1e-12
            previous = t


class TestValidation:
    def test_caps_too_tight_infeasible(self, paper_group):
        with pytest.raises(InfeasibleError):
            solve_capped(paper_group, 23.52, [1.0] * 7)

    def test_wrong_shape(self, paper_group):
        with pytest.raises(ParameterError):
            solve_capped(paper_group, 10.0, [INF] * 3)

    def test_negative_cap(self, paper_group):
        with pytest.raises(ParameterError):
            solve_capped(paper_group, 10.0, [-1.0] + [INF] * 6)

    def test_nan_cap(self, paper_group):
        with pytest.raises(ParameterError):
            solve_capped(paper_group, 10.0, [float("nan")] + [INF] * 6)

    def test_group_infeasibility_still_checked(self, paper_group):
        with pytest.raises(InfeasibleError):
            solve_capped(
                paper_group, paper_group.max_generic_rate, [INF] * 7
            )


class TestCapacityEdge:
    """The feasibility check and the solver agree on the last admissible rate."""

    CAPS = [3.0] * 7

    def edge(self, group):
        bounds = np.minimum(self.CAPS, group.spare_capacities)
        return float(rate_ceilings(bounds).sum())

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_sum_of_ceilings_is_met(self, paper_group, disc):
        lam = self.edge(paper_group)
        res = solve_capped(paper_group, lam, self.CAPS, disc)
        assert abs(res.total_rate - lam) <= DEFAULT_TOL * max(1.0, lam)
        assert np.all(res.generic_rates <= self.CAPS)
        assert all(res.metadata["capped"])

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_one_ulp_beyond_is_infeasible(self, paper_group, disc):
        lam = float(np.nextafter(self.edge(paper_group), INF))
        with pytest.raises(InfeasibleError):
            solve_capped(paper_group, lam, self.CAPS, disc)
