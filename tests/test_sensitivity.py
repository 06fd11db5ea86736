"""Tests for the envelope-theorem sensitivities of the optimal T'."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sensitivity import optimal_value_sensitivities
from repro.core.objective import speed_gradient
from repro.core.server import BladeServerGroup
from repro.core.solvers import dispatch


def reoptimized_fd_special(group, total_rate, disc, j, h=1e-5):
    """Finite difference of the *re-optimized* T' w.r.t. lambda''_j."""

    def t_opt(delta):
        specials = group.special_rates.copy()
        specials[j] += delta
        g = BladeServerGroup.from_arrays(
            group.sizes, group.speeds, specials, rbar=group.rbar
        )
        return dispatch(
            g, total_rate, disc
        ).mean_response_time

    return (t_opt(h) - t_opt(-h)) / (2.0 * h)


def reoptimized_fd_speed(group, total_rate, disc, j, h=1e-5):
    def t_opt(delta):
        speeds = group.speeds.copy()
        speeds[j] += delta
        g = BladeServerGroup.from_arrays(
            group.sizes, speeds, group.special_rates, rbar=group.rbar
        )
        return dispatch(
            g, total_rate, disc
        ).mean_response_time

    return (t_opt(h) - t_opt(-h)) / (2.0 * h)


def reoptimized_fd_rbar(group, total_rate, disc, h=1e-6):
    def t_opt(delta):
        g = BladeServerGroup.from_arrays(
            group.sizes,
            group.speeds,
            group.special_rates,
            rbar=group.rbar + delta,
        )
        return dispatch(
            g, total_rate, disc
        ).mean_response_time

    return (t_opt(h) - t_opt(-h)) / (2.0 * h)


def fixed_group():
    return BladeServerGroup.with_special_fraction(
        sizes=[2, 4, 6], speeds=[1.4, 1.2, 1.0], fraction=0.3
    )


@pytest.fixture(scope="module")
def group():
    return fixed_group()


def random_group(seed, n=4):
    """Random sizes, speeds, rbar and preloads (up to half of capacity)."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 9, n)
    speeds = rng.uniform(0.5, 2.0, n)
    rbar = float(rng.uniform(0.5, 2.0))
    specials = rng.uniform(0.0, 0.5, n) * sizes * speeds / rbar
    return BladeServerGroup.from_arrays(
        sizes.tolist(), speeds.tolist(), specials.tolist(), rbar=rbar
    )


#: The third server is slow and 75% preloaded: its first generic task
#: costs ~20x the others' marginals, so the optimum parks it at 60% load.
PARKED_GROUP = BladeServerGroup.from_arrays(
    [4, 2, 1], [2.0, 1.0, 0.2], [0.2, 0.5, 0.15]
)

#: The groups every envelope check runs on, at 60% of capacity.
ENVELOPE_GROUPS = [fixed_group()] + [random_group(s) for s in (1, 2, 3)] + [
    PARKED_GROUP
]


class TestEnvelopeTheorem:
    """The cheap fixed-rate sensitivities must match re-optimized FDs."""

    def test_parked_group_parks_a_server(self):
        lam = 0.6 * PARKED_GROUP.max_generic_rate
        for disc in ("fcfs", "priority"):
            assert dispatch(PARKED_GROUP, lam, disc).generic_rates[2] == 0.0

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_special_rate_sensitivities(self, disc):
        for g in ENVELOPE_GROUPS:
            lam = 0.6 * g.max_generic_rate
            rep = optimal_value_sensitivities(g, lam, disc)
            for j in range(g.n):
                fd = reoptimized_fd_special(g, lam, disc, j)
                assert rep.d_special[j] == pytest.approx(fd, rel=2e-3, abs=1e-8)

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_speed_sensitivities(self, disc):
        for g in ENVELOPE_GROUPS:
            lam = 0.6 * g.max_generic_rate
            rep = optimal_value_sensitivities(g, lam, disc)
            for j in range(g.n):
                fd = reoptimized_fd_speed(g, lam, disc, j)
                assert rep.d_speed[j] == pytest.approx(fd, rel=2e-3, abs=1e-8)

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_rbar_sensitivity(self, disc):
        for g in ENVELOPE_GROUPS:
            lam = 0.6 * g.max_generic_rate
            rep = optimal_value_sensitivities(g, lam, disc)
            fd = reoptimized_fd_rbar(g, lam, disc)
            assert rep.d_rbar == pytest.approx(fd, rel=2e-3)

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_speed_gradient_matches_frozen_rate_differences(self, disc):
        """``speed_gradient`` is the partial derivative at *any* fixed split."""
        h = 1e-6
        for g in ENVELOPE_GROUPS:
            lam = 0.6 * g.max_generic_rate
            # The optimal split, and a suboptimal one with every server loaded.
            splits = [
                dispatch(g, lam, disc).generic_rates,
                0.6 * g.spare_capacities,
            ]
            for rates in splits:
                grad = speed_gradient(g, rates, disc)
                for j in range(g.n):

                    def t_frozen(delta):
                        speeds = g.speeds.copy()
                        speeds[j] += delta
                        moved = BladeServerGroup.from_arrays(
                            g.sizes, speeds, g.special_rates, rbar=g.rbar
                        )
                        return moved.mean_response_time(rates, disc)

                    fd = (t_frozen(h) - t_frozen(-h)) / (2.0 * h)
                    assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestRuleOfThumbSigns:
    """The paper's qualitative levers, now with signs from calculus."""

    def test_signs(self, group):
        lam = 0.6 * group.max_generic_rate
        rep = optimal_value_sensitivities(group, lam)
        assert np.all(rep.d_special >= 0.0)  # preload hurts
        assert np.all(rep.d_speed <= 0.0)  # speed helps
        assert rep.d_rbar > 0.0  # bigger tasks hurt

    def test_sensitivities_grow_with_load(self, group):
        lo = optimal_value_sensitivities(group, 0.3 * group.max_generic_rate)
        hi = optimal_value_sensitivities(group, 0.85 * group.max_generic_rate)
        # The paper: all effects are amplified "especially when lambda'
        # is large".
        assert hi.d_rbar > lo.d_rbar
        assert np.all(np.abs(hi.d_speed) >= np.abs(lo.d_speed) - 1e-12)

    def test_priority_at_least_as_sensitive_to_preload(self, group):
        lam = 0.6 * group.max_generic_rate
        f = optimal_value_sensitivities(group, lam, "fcfs")
        p = optimal_value_sensitivities(group, lam, "priority")
        assert p.d_special.sum() > f.d_special.sum()

    def test_render(self, group):
        text = optimal_value_sensitivities(
            group, 0.5 * group.max_generic_rate
        ).render()
        assert "dT'/drbar" in text and "server 1" in text


class TestParkedServers:
    def test_zero_rate_server_has_zero_sensitivity(self):
        # A server the optimizer parks at zero contributes no weight.
        g = BladeServerGroup.from_arrays(
            [4, 1], [2.0, 0.1], [0.0, 0.05], rbar=1.0
        )
        rep = optimal_value_sensitivities(g, 0.5, "fcfs")
        assert rep.d_special[1] == 0.0
        assert rep.d_speed[1] == 0.0
