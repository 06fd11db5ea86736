"""Property-based tests for the extension modules.

Sweeps random parameter space for: response-time distribution laws
(valid CDFs, quantile/cdf inversion, mean identities), the K-class
priority recursion (ordering, conservation, FCFS blend), and the capped
solver under both disciplines (budget, caps respected, degradation vs.
unconstrained, KKT complementary slackness).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constrained import solve_capped
from repro.core.distributions import (
    ResponseTimeDistribution,
    WaitingTimeDistribution,
)
from repro.core.exceptions import InfeasibleError
from repro.core.kkt import solve_kkt
from repro.core.multiclass import MulticlassStation
from repro.core.mmm import MMmQueue
from repro.core.objective import gradient
from repro.core.server import BladeServerGroup

sizes = st.integers(min_value=1, max_value=40)
utilizations = st.floats(min_value=1e-3, max_value=0.99, allow_nan=False)
service_times = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)


class TestDistributionProperties:
    @given(m=sizes, xbar=service_times, rho=utilizations)
    @settings(max_examples=60)
    def test_waiting_sf_valid(self, m, xbar, rho):
        wd = WaitingTimeDistribution(m, xbar, rho)
        ts = [0.0, 0.1 * xbar, xbar, 10.0 * xbar]
        sfs = [wd.sf(t) for t in ts]
        assert all(0.0 <= s <= 1.0 for s in sfs)
        assert all(b <= a + 1e-15 for a, b in zip(sfs, sfs[1:]))

    @given(m=sizes, xbar=service_times, rho=utilizations)
    @settings(max_examples=60)
    def test_response_mean_identity(self, m, xbar, rho):
        rd = ResponseTimeDistribution(m, xbar, rho)
        lam = rho * m / xbar
        assert np.isclose(
            rd.mean, MMmQueue(m, xbar, lam).response_time, rtol=1e-10
        )

    @given(
        m=sizes,
        xbar=service_times,
        rho=utilizations,
        p=st.floats(min_value=0.01, max_value=0.999),
    )
    @settings(max_examples=80)
    def test_quantile_inverse(self, m, xbar, rho, p):
        rd = ResponseTimeDistribution(m, xbar, rho)
        t = rd.quantile(p)
        assert t >= 0.0
        assert np.isclose(rd.cdf(t), p, atol=1e-7)

    @given(m=sizes, xbar=service_times, rho=utilizations)
    @settings(max_examples=60)
    def test_response_stochastically_dominates_waiting(self, m, xbar, rho):
        wd = WaitingTimeDistribution(m, xbar, rho)
        rd = ResponseTimeDistribution(m, xbar, rho)
        for t in (0.0, 0.5 * xbar, 2.0 * xbar):
            assert rd.sf(t) >= wd.sf(t) - 1e-12  # T = W + S >= W


@st.composite
def ladder(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=16))
    xbar = draw(st.floats(min_value=0.05, max_value=5.0, allow_nan=False))
    # Keep total utilization below 0.97.
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    rho_total = draw(st.floats(min_value=0.05, max_value=0.97))
    w = np.asarray(weights)
    rates = w / w.sum() * rho_total * m / xbar
    return MulticlassStation(m, xbar, tuple(float(r) for r in rates))


class TestMulticlassProperties:
    @given(station=ladder())
    @settings(max_examples=60)
    def test_ladder_ordering(self, station):
        w = station.waiting_times()
        assert np.all(np.diff(w) >= -1e-15)
        assert np.all(w >= 0.0)

    @given(station=ladder())
    @settings(max_examples=60)
    def test_work_conservation(self, station):
        assert station.conservation_gap() < 1e-9

    @given(station=ladder())
    @settings(max_examples=60)
    def test_top_class_wait_below_fcfs_below_bottom(self, station):
        w = station.waiting_times()
        fcfs = station.w_zero / (1.0 - station.utilization)
        assert w[0] <= fcfs + 1e-12
        assert w[-1] >= fcfs - 1e-12


@st.composite
def capped_instance(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    sizes_ = draw(
        st.lists(st.integers(min_value=1, max_value=10), min_size=n, max_size=n)
    )
    speeds = draw(
        st.lists(
            st.floats(min_value=0.3, max_value=2.5, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    fracs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    specials = [f * m * s for f, m, s in zip(fracs, sizes_, speeds)]
    group = BladeServerGroup.from_arrays(sizes_, speeds, specials)
    load = draw(st.floats(min_value=0.1, max_value=0.85))
    lam = load * group.max_generic_rate
    # Caps: random multipliers of the even split, floored so the
    # instance stays feasible.
    mults = draw(
        st.lists(
            st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    caps = np.asarray(mults) * lam / n
    return group, lam, caps


class TestCappedProperties:
    @given(inst=capped_instance())
    @settings(max_examples=40, deadline=None)
    def test_budget_caps_and_dominance(self, inst):
        group, lam, caps = inst
        for disc in ("fcfs", "priority"):
            try:
                res = solve_capped(group, lam, caps, disc)
            except InfeasibleError:
                # Legitimately infeasible when the caps cannot absorb lam.
                bounds = np.minimum(caps, group.spare_capacities)
                assert bounds.sum() < lam * (1 + 1e-9)
                continue
            assert np.isclose(res.total_rate, lam, rtol=1e-8)
            assert np.all(res.generic_rates <= caps * (1 + 1e-8) + 1e-12)
            assert np.all(res.utilizations < 1.0)
            free = solve_kkt(group, lam, disc)
            assert res.mean_response_time >= free.mean_response_time - 1e-9
            # KKT certificate: complementary slackness at the multiplier.
            rates = res.generic_rates
            g = gradient(group, rates, disc)
            phi = res.phi
            capped = rates >= caps * (1 - 1e-9)
            parked = rates == 0.0
            interior = ~capped & ~parked
            assert np.allclose(g[interior], phi, rtol=1e-7)  # free share phi
            assert np.all(g[capped] <= phi * (1 + 1e-9))  # capped want more
            assert np.all(g[parked] >= phi * (1 - 1e-9))  # parked want none
