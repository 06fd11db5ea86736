"""Property-based tests for the optimizer across random instances.

For randomly generated heterogeneous groups and loads the solver must:
satisfy the budget constraint, stay strictly stable, satisfy the KKT
conditions, beat random feasible splits, agree across backends, and be
monotone in the total load.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bisection import calculate_t_prime
from repro.core.closed_form import solve_closed_form
from repro.core.kkt import solve_kkt
from repro.core.newton import solve_newton
from repro.core.objective import gradient
from repro.core.server import BladeServerGroup


@st.composite
def random_instance(draw, max_servers=5, single_blade=False):
    """A random feasible (group, total_rate, discipline) triple."""
    n = draw(st.integers(min_value=1, max_value=max_servers))
    if single_blade:
        sizes = [1] * n
    else:
        sizes = draw(
            st.lists(
                st.integers(min_value=1, max_value=12),
                min_size=n,
                max_size=n,
            )
        )
    speeds = draw(
        st.lists(
            st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    fractions = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    rbar = draw(st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
    specials = [
        f * m * s / rbar for f, m, s in zip(fractions, sizes, speeds)
    ]
    group = BladeServerGroup.from_arrays(sizes, speeds, specials, rbar=rbar)
    load = draw(st.floats(min_value=0.05, max_value=0.9, allow_nan=False))
    disc = draw(st.sampled_from(["fcfs", "priority"]))
    return group, load * group.max_generic_rate, disc


class TestOptimizerProperties:
    @given(inst=random_instance())
    @settings(max_examples=40, deadline=None)
    def test_budget_and_stability(self, inst):
        group, lam, disc = inst
        res = solve_kkt(group, lam, disc)
        assert np.isclose(res.total_rate, lam, rtol=1e-9)
        assert np.all(res.generic_rates >= 0.0)
        assert np.all(res.utilizations < 1.0)

    @given(inst=random_instance())
    @settings(max_examples=30, deadline=None)
    def test_kkt_conditions(self, inst):
        group, lam, disc = inst
        res = solve_kkt(group, lam, disc)
        grads = gradient(group, res.generic_rates, disc)
        loaded = res.generic_rates > 1e-7 * lam
        if loaded.any():
            phi = grads[loaded].min()
            # Loaded servers share one marginal.  Tolerance: near
            # saturation F(phi) is steep, so the outer Brent's phi
            # interval plus the budget rescale leave a ~1e-4 relative
            # spread in the marginals; the induced T' suboptimality is
            # second-order (~1e-8) and irrelevant.
            assert grads[loaded].max() - phi < 1e-4 * max(phi, 1.0)
            # ...and unloaded servers sit at or above it.
            assert np.all(grads[~loaded] >= phi - 1e-5 * max(phi, 1.0))

    @given(inst=random_instance(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_beats_random_split(self, inst, data):
        group, lam, disc = inst
        res = solve_kkt(group, lam, disc)
        w = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                    min_size=group.n,
                    max_size=group.n,
                )
            )
        )
        rates = w / w.sum() * lam
        if np.any(rates >= group.spare_capacities):
            return  # random split infeasible; nothing to compare
        t = group.mean_response_time(rates, disc)
        assert t >= res.mean_response_time - 1e-9

    @given(inst=random_instance(max_servers=4))
    @settings(max_examples=15, deadline=None)
    def test_backends_agree(self, inst):
        group, lam, disc = inst
        a = solve_kkt(group, lam, disc)
        b = calculate_t_prime(group, lam, disc)
        assert np.isclose(
            a.mean_response_time, b.mean_response_time, rtol=1e-6
        ), (group.sizes, group.speeds, group.special_rates, group.rbar, lam)

    @given(inst=random_instance(single_blade=True))
    @settings(max_examples=25, deadline=None)
    def test_closed_form_agrees(self, inst):
        group, lam, disc = inst
        a = solve_closed_form(group, lam, disc)
        b = solve_kkt(group, lam, disc)
        assert np.isclose(
            a.mean_response_time, b.mean_response_time, rtol=1e-7
        )
        assert np.allclose(a.generic_rates, b.generic_rates, atol=1e-6)

    @given(inst=random_instance(max_servers=4))
    @settings(max_examples=15, deadline=None)
    def test_bisection_backends_invariants_and_agreement(self, inst):
        """Scalar nested bisection vs Newton: feasibility + parity.

        Both backends must return rates inside the stability box
        ``0 <= lambda'_i < m_i/xbar_i - lambda''_i`` summing to the
        requested total within 1e-9, and agree on the minimized ``T'``
        to 1e-9 under either discipline.
        """
        group, lam, disc = inst
        scalar = calculate_t_prime(group, lam, disc)
        newton = solve_newton(group, lam, disc)
        for res in (scalar, newton):
            rates = np.asarray(res.generic_rates)
            assert np.all(rates >= 0.0)
            assert np.all(rates < group.spare_capacities)
            assert abs(rates.sum() - lam) <= 1e-9 * max(1.0, lam)
        assert (
            abs(scalar.mean_response_time - newton.mean_response_time)
            <= 1e-9 * max(1.0, scalar.mean_response_time)
        )

    @given(inst=random_instance())
    @settings(max_examples=20, deadline=None)
    def test_t_prime_monotone_in_load(self, inst):
        group, lam, disc = inst
        t_lo = solve_kkt(group, 0.5 * lam, disc).mean_response_time
        t_hi = solve_kkt(group, lam, disc).mean_response_time
        assert t_hi >= t_lo - 1e-10
