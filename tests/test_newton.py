"""Tests for the damped-Newton dual-ascent backend (core/newton.py).

Covers the analytic building blocks (the batched ``p_0`` kernel,
second derivatives, marginal costs and their slopes against their
scalar counterparts), cross-backend
agreement on randomized heterogeneous groups — including zero-rate
parked servers and the saturation edge — warm-start semantics, and the
Tables 1–2 seven-decimal anchors through the ``repro.solve`` facade.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.core.bisection import calculate_t_prime
from repro.core.erlang import log_p_zero, p_zero
from repro.core.exceptions import ParameterError, SaturationError
from repro.core.kkt import solve_kkt
from repro.core.newton import (
    _BLOCK,
    _response_derivatives,
    marginal_cost_and_slope_vec,
    p_zero_vec,
    solve_newton,
)
from repro.core.objective import marginal_cost
from repro.core.response import (
    Discipline,
    d2_generic_response_time_drho2,
    d_generic_response_time_drho,
    waiting_factor,
)
from repro.core.server import BladeServer, BladeServerGroup
from repro.workloads.sweeps import sweep_rates
from repro.workloads.paper import (
    EXAMPLE_TOTAL_RATE,
    TABLE1_RATES,
    TABLE1_T_PRIME,
    TABLE2_RATES,
    TABLE2_T_PRIME,
)

DISCIPLINES = ["fcfs", "priority"]

#: Half a unit in the seventh decimal place (the tables' precision).
SEVEN_DECIMALS = 5e-8


def random_group(rng: np.random.Generator) -> BladeServerGroup:
    """A random heterogeneous group whose servers are never saturated
    by their special load alone (special rate < 40% of capacity)."""
    n = int(rng.integers(2, 20))
    servers = []
    for _ in range(n):
        m = int(rng.integers(1, 9))
        speed = float(rng.uniform(0.3, 3.0))
        special = float(rng.uniform(0.0, 0.4) * m * speed)
        servers.append(BladeServer(size=m, speed=speed, special_rate=special))
    return BladeServerGroup(servers, rbar=1.0)


class TestKernels:
    def test_p_zero_matches_scalar(self):
        ms, rhos, expected = [], [], []
        for m in (1, 2, 3, 7, 14, 30, 100, 250):
            for rho in (0.0, 1e-9, 0.1, 0.5, 0.9, 0.999):
                ms.append(m)
                rhos.append(rho)
                expected.append(p_zero(m, rho))
        np.testing.assert_allclose(p_zero_vec(ms, rhos), expected, rtol=1e-12)

    def test_p_zero_m1_closed_form(self):
        rhos = np.linspace(0.0, 0.99, 34)
        got = p_zero_vec(np.ones(rhos.size, dtype=int), rhos)
        np.testing.assert_allclose(got, 1.0 - rhos, rtol=1e-13)

    def test_p_zero_rescale_path(self):
        # Offered loads large enough that the partial sums pass the
        # rescale threshold; the log-space scalar is the oracle.
        ms = [1000, 2000, 5000]
        rhos = [0.7, 0.8, 0.9]
        expected = [np.exp(log_p_zero(m, r)) for m, r in zip(ms, rhos)]
        np.testing.assert_allclose(p_zero_vec(ms, rhos), expected, rtol=1e-9)

    def test_saturated_utilization_raises(self):
        with pytest.raises(SaturationError):
            p_zero_vec([2, 3], [0.5, 1.0])

    def test_waiting_factor_matches_scalar(self):
        ms, rhos, expected = [], [], []
        for m in (1, 2, 5, 14, 60):
            for rho in (0.0, 0.2, 0.6, 0.95):
                ms.append(m)
                rhos.append(rho)
                expected.append(waiting_factor(m, rho))
        ms, rhos = np.array(ms), np.array(rhos)
        got, _, _ = _response_derivatives(
            ms, ms.astype(float), np.ones_like(rhos), rhos, 0.0 * rhos, Discipline.FCFS
        )
        np.testing.assert_allclose(got, expected, rtol=1e-11)


class TestBatchedSecondDerivative:
    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_matches_scalar_kernel(self, disc):
        ms = np.array([1, 2, 3, 5, 8, 14], dtype=np.int64)
        xbars = np.array([0.8, 1.0, 1.3, 0.6, 1.0, 2.0])
        rhos = np.array([0.3, 0.0, 0.55, 0.7, 0.9, 0.15])
        rho_s = np.array([0.1, 0.0, 0.2, 0.3, 0.25, 0.05])
        d = Discipline.coerce(disc)
        _, _, got = _response_derivatives(ms, ms.astype(float), xbars, rhos, rho_s, d)
        want = [
            d2_generic_response_time_drho2(
                int(ms[i]), float(xbars[i]), float(rhos[i]), float(rho_s[i]), d
            )
            for i in range(ms.size)
        ]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


class TestMarginalAndSlope:
    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_marginal_matches_scalar_kernel(self, disc):
        ms = np.array([1, 2, 4, 6, 14], dtype=np.int64)
        xbars = np.array([0.9, 1.0, 0.7, 1.4, 0.5])
        specials = np.array([0.3, 0.5, 1.0, 0.8, 5.0])
        lams = np.array([0.2, 0.6, 1.5, 0.0, 12.0])
        d = Discipline.coerce(disc)
        g, _ = marginal_cost_and_slope_vec(ms, xbars, specials, lams, 5.0, d)
        ref = [
            marginal_cost(int(m), float(xb), float(sp), float(lam), 5.0, d)
            for m, xb, sp, lam in zip(ms, xbars, specials, lams)
        ]
        np.testing.assert_allclose(g, ref, rtol=1e-11)

    def test_marginal_matches_vectorized_kernel(self):
        # A random batch, both disciplines through one batched call
        # each: the vectorized marginal must match the scalar one
        # server by server, including large blades and zero load.
        rng = np.random.default_rng(7)
        n = 40
        ms = rng.integers(1, 60, size=n).astype(np.int64)
        xbars = rng.uniform(0.3, 2.0, size=n)
        cap = ms / xbars
        specials = rng.uniform(0.0, 0.4, size=n) * cap
        lams = rng.uniform(0.0, 0.5, size=n) * cap
        lams[::7] = 0.0
        total = float(lams.sum())
        for d in (Discipline.FCFS, Discipline.PRIORITY):
            g, _ = marginal_cost_and_slope_vec(ms, xbars, specials, lams, total, d)
            ref = [
                marginal_cost(int(m), float(xb), float(sp), float(lam), total, d)
                for m, xb, sp, lam in zip(ms, xbars, specials, lams)
            ]
            np.testing.assert_allclose(g, ref, rtol=1e-11)

    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_slope_matches_finite_difference(self, disc):
        ms = np.array([1, 3, 7], dtype=np.int64)
        xbars = np.array([1.0, 0.8, 1.2])
        specials = np.array([0.2, 0.9, 1.1])
        lams = np.array([0.4, 1.2, 2.0])
        d = Discipline.coerce(disc)
        h = 1e-7
        _, slope = marginal_cost_and_slope_vec(ms, xbars, specials, lams, 4.0, d)
        g_hi, _ = marginal_cost_and_slope_vec(ms, xbars, specials, lams + h, 4.0, d)
        g_lo, _ = marginal_cost_and_slope_vec(ms, xbars, specials, lams - h, 4.0, d)
        np.testing.assert_allclose(slope, (g_hi - g_lo) / (2 * h), rtol=2e-5)

    @staticmethod
    def scalar_slope(m, xbar, special, lam, total, disc):
        """``g' = (xbar/m) (2 dT'/drho + rho' d2T'/drho2) / lambda'``
        from the scalar derivatives, at the kernel's own utilizations."""
        rho = (lam + special) * xbar / m
        rho_g = lam * xbar / m
        rho_s = special * xbar / m
        dt = d_generic_response_time_drho(m, xbar, rho, rho_s, disc)
        d2t = d2_generic_response_time_drho2(m, xbar, rho, rho_s, disc)
        return (xbar / m) * (2.0 * dt + rho_g * d2t) / total

    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_slope_matches_scalar_derivatives(self, disc):
        d = Discipline.coerce(disc)
        ms, xbars, specials, lams = [], [], [], []
        for m in (1, 2, 3, 7, 14, 60, 250):
            for rho in (0.0, 1e-9, 0.3, 0.9, 0.999):
                for special_frac in (0.0, 0.3):
                    xbar = 0.7 + 0.05 * (len(ms) % 26)
                    cap = m / xbar
                    ms.append(m)
                    xbars.append(xbar)
                    specials.append(special_frac * rho * cap)
                    lams.append((1.0 - special_frac) * rho * cap)
        ms = np.array(ms, dtype=np.int64)
        xbars, specials, lams = map(np.array, (xbars, specials, lams))
        _, slope = marginal_cost_and_slope_vec(ms, xbars, specials, lams, 3.0, d)
        want = [
            self.scalar_slope(int(m), xb, sp, lam, 3.0, d)
            for m, xb, sp, lam in zip(ms, xbars, specials, lams)
        ]
        np.testing.assert_allclose(slope, want, rtol=1e-12)

    def test_blocked_batch_matches_scalar_derivatives(self):
        # More servers than one kernel block: the sampled indices
        # straddle every block boundary.
        rng = np.random.default_rng(11)
        n = 20_000
        assert n > 2 * _BLOCK
        ms = rng.integers(1, 41, size=n).astype(np.int64)
        xbars = rng.uniform(0.3, 2.0, size=n)
        cap = ms / xbars
        specials = rng.uniform(0.0, 0.3, size=n) * cap
        specials[rng.random(n) < 0.3] = 0.0
        lams = rng.uniform(0.0, 0.6, size=n) * cap
        lams[rng.random(n) < 0.2] = 0.0
        sample = np.unique(
            np.concatenate(
                [
                    rng.choice(n, size=200, replace=False),
                    [0, n - 1],
                    *[[b - 1, b] for b in range(_BLOCK, n, _BLOCK)],
                ]
            )
        )
        for d in (Discipline.FCFS, Discipline.PRIORITY):
            g, slope = marginal_cost_and_slope_vec(ms, xbars, specials, lams, 50.0, d)
            want_g = [
                marginal_cost(int(ms[i]), xbars[i], specials[i], lams[i], 50.0, d)
                for i in sample
            ]
            want = [
                self.scalar_slope(int(ms[i]), xbars[i], specials[i], lams[i], 50.0, d)
                for i in sample
            ]
            np.testing.assert_allclose(g[sample], want_g, rtol=1e-11)
            np.testing.assert_allclose(slope[sample], want, rtol=1e-12)


class TestBackendAgreement:
    """newton/kkt/bisection agree to <= 1e-9 on random heterogeneous
    groups."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_groups(self, seed):
        rng = np.random.default_rng(1000 + seed)
        group = random_group(rng)
        lam = float(rng.uniform(0.05, 0.95)) * group.max_generic_rate
        disc = DISCIPLINES[seed % 2]
        r_newton = solve_newton(group, lam, disc)
        r_kkt = solve_kkt(group, lam, disc)
        r_bis = calculate_t_prime(group, lam, disc)
        for other in (r_kkt, r_bis):
            assert float(
                np.max(np.abs(r_newton.generic_rates - other.generic_rates))
            ) <= 1e-9

    def test_parked_servers_get_zero(self):
        # One server saturated by special load (zero spare capacity)
        # and one too slow to deserve traffic at low load.
        group = BladeServerGroup(
            [
                BladeServer(size=2, speed=1.0, special_rate=1.999),
                BladeServer(size=1, speed=0.05),
                BladeServer(size=4, speed=2.0),
            ],
            rbar=1.0,
        )
        lam = 0.2 * group.max_generic_rate
        r_newton = solve_newton(group, lam)
        r_kkt = solve_kkt(group, lam)
        assert r_newton.generic_rates[0] == 0.0
        assert r_newton.generic_rates[1] == 0.0
        assert float(
            np.max(np.abs(r_newton.generic_rates - r_kkt.generic_rates))
        ) <= 1e-9

    @pytest.mark.parametrize("frac", [0.99, 0.999, 1.0 - 1e-9])
    def test_saturation_edge(self, frac):
        group = BladeServerGroup(
            [BladeServer(size=16, speed=1.0) for _ in range(6)]
            + [BladeServer(size=1, speed=2.0)],
            rbar=1.0,
        )
        lam = frac * group.max_generic_rate
        r_newton = solve_newton(group, lam)
        r_kkt = solve_kkt(group, lam)
        assert float(
            np.max(np.abs(r_newton.generic_rates - r_kkt.generic_rates))
        ) <= 1e-9
        assert float(abs(r_newton.generic_rates.sum() - lam)) <= 1e-9 * lam
        assert np.all(r_newton.utilizations < 1.0)

    def test_flat_marginal_interpolation_repair(self):
        # Identical large-m servers at low load: F(phi) jumps across
        # the budget inside a float-resolution multiplier window, so
        # the component-wise endpoint interpolation must close it.
        group = BladeServerGroup(
            [BladeServer(size=16, speed=1.0) for _ in range(6)], rbar=1.0
        )
        lam = 0.2 * group.max_generic_rate
        res = solve_newton(group, lam)
        assert float(abs(res.generic_rates.sum() - lam)) <= 1e-9 * lam
        np.testing.assert_allclose(
            res.generic_rates, res.generic_rates[0], rtol=1e-9
        )


class TestSolveNewton:
    """Seeded random groups of a different shape than ``random_group``
    (up to 15 blades per server, up to 50% special load)."""

    @staticmethod
    def random_groups(count, seed):
        rng = np.random.default_rng(seed)
        groups = []
        for _ in range(count):
            n = int(rng.integers(2, 11))
            sizes = rng.integers(1, 16, n)
            speeds = rng.uniform(0.4, 2.5, n)
            specials = rng.uniform(0.0, 0.5, n) * sizes * speeds
            groups.append(BladeServerGroup.from_arrays(sizes, speeds, specials))
        return groups

    @pytest.mark.parametrize("disc", [Discipline.FCFS, Discipline.PRIORITY])
    def test_matches_paper_bisection_on_random_instances(self, disc):
        for group in self.random_groups(8, seed=2024):
            lam = 0.7 * group.max_generic_rate
            newton = solve_newton(group, lam, disc, tol=1e-12)
            ref = calculate_t_prime(group, lam, disc, tol=1e-12)
            np.testing.assert_allclose(
                newton.generic_rates, ref.generic_rates, atol=1e-9
            )
            assert abs(newton.mean_response_time - ref.mean_response_time) < 1e-9

    @pytest.mark.parametrize("disc", [Discipline.FCFS, Discipline.PRIORITY])
    def test_warm_start_agrees_with_cold(self, paper_group, disc):
        hint = None
        for lam in sweep_rates(paper_group, points=6, hi_fraction=0.9):
            cold = solve_newton(paper_group, lam, disc, tol=1e-12)
            warm = solve_newton(paper_group, lam, disc, tol=1e-12, phi_hint=hint)
            hint = warm.phi
            assert abs(warm.mean_response_time - cold.mean_response_time) < 1e-9
            assert abs(sum(warm.generic_rates) - lam) < 1e-9 * max(1.0, lam)

    def test_large_group_smoke(self):
        group = BladeServerGroup.with_special_fraction(
            [1 + (i % 16) for i in range(300)],
            [0.6 + 0.01 * (i % 120) for i in range(300)],
            fraction=0.3,
        )
        lam = 0.6 * group.max_generic_rate
        res = solve_newton(group, lam, tol=1e-9)
        assert abs(sum(res.generic_rates) - lam) < 1e-6
        assert np.all(res.utilizations < 1.0)


class TestWarmStart:
    def test_phi_hint_converges_to_same_optimum(self, paper_group):
        cold = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        warm = solve_newton(
            paper_group, EXAMPLE_TOTAL_RATE * 1.02, phi_hint=cold.phi
        )
        again = solve_newton(paper_group, EXAMPLE_TOTAL_RATE * 1.02)
        assert float(
            np.max(np.abs(warm.generic_rates - again.generic_rates))
        ) <= 1e-9

    def test_exact_hint_converges_in_few_outers(self, paper_group):
        cold = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        warm = solve_newton(paper_group, EXAMPLE_TOTAL_RATE, phi_hint=cold.phi)
        assert warm.iterations <= 3
        assert warm.iterations < cold.iterations

    @pytest.mark.parametrize("n, lam", [(64, 0.192), (500, 0.5)])
    def test_exact_hint_on_a_flat_band_converges_at_once(self, n, lam):
        # Fleet shape at very low load: the few active servers' marginals
        # are flat to float precision, so at the exact multiplier their
        # inner roots stay at the cold split and the Newton step on phi
        # rounds to zero.  The step is taken in rate space instead
        # (cold: ~50 outer iterations, and ~60 with this hint before).
        group = BladeServerGroup(
            [
                BladeServer(size=1 + i % 16, speed=0.6 + 0.01 * (i % 120))
                for i in range(n)
            ],
            rbar=1.0,
        )
        cold = solve_newton(group, lam)
        warm = solve_newton(group, lam, phi_hint=cold.phi)
        assert warm.iterations == 1 < cold.iterations
        assert warm.phi == cold.phi
        assert warm.mean_response_time == pytest.approx(
            cold.mean_response_time, rel=1e-12
        )
        assert float(abs(warm.generic_rates.sum() - lam)) <= 1e-12 * lam
        g, _ = marginal_cost_and_slope_vec(
            group.sizes,
            group.xbars,
            group.special_rates,
            warm.generic_rates,
            lam,
            Discipline.FCFS,
        )
        active = warm.generic_rates > 0.0
        np.testing.assert_allclose(g[active], warm.phi, rtol=1e-15)

    def test_registered_as_warm_startable(self):
        from repro.core.solvers import warm_startable_methods

        assert "newton" in warm_startable_methods()

    @pytest.mark.parametrize("factor", [1e-18, 1e30])
    def test_hint_outside_feasible_band_is_reanchored(self, paper_group, factor):
        # A hint below min g_i(0) (everything would park) or above
        # max g_i(cap) (everything would pin) carries no usable
        # information; the solver must detect it against the
        # precomputed band and fall back to the cold seed — identical
        # optimum, identical iteration count, no safeguarded walk.
        cold = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        warm = solve_newton(
            paper_group, EXAMPLE_TOTAL_RATE, phi_hint=cold.phi * factor
        )
        assert float(
            np.max(np.abs(warm.generic_rates - cold.generic_rates))
        ) <= 1e-9
        assert warm.iterations == cold.iterations

    def test_stale_in_band_hint_recovers_geometrically(self, paper_group):
        # gcap diverges with the stability margin, so the feasible band
        # spans ~12 decades and a wildly stale hint can still be
        # in-band.  The geometric safeguard halves the *exponent*
        # range per rejected step, so recovery is logarithmic in the
        # hint's error, not linear.
        cold = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        warm = solve_newton(
            paper_group, EXAMPLE_TOTAL_RATE, phi_hint=cold.phi * 1e6
        )
        assert float(
            np.max(np.abs(warm.generic_rates - cold.generic_rates))
        ) <= 1e-9
        assert warm.iterations <= 20

    def test_nonsense_hints_fall_back_to_cold_start(self, paper_group):
        cold = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        for hint in (float("nan"), float("inf"), -1.0, 0.0):
            warm = solve_newton(paper_group, EXAMPLE_TOTAL_RATE, phi_hint=hint)
            assert float(
                np.max(np.abs(warm.generic_rates - cold.generic_rates))
            ) <= 1e-9


class TestFacadeAnchors:
    """Tables 1-2 seven-decimal reproduction through repro.solve."""

    def test_table1_fcfs(self, paper_group):
        res = solve(paper_group, EXAMPLE_TOTAL_RATE, method="newton")
        assert res.backend == "newton"
        assert res.mean_response_time == pytest.approx(
            TABLE1_T_PRIME, abs=SEVEN_DECIMALS
        )
        assert np.allclose(res.generic_rates, TABLE1_RATES, atol=SEVEN_DECIMALS)

    def test_table2_priority(self, paper_group):
        res = solve(
            paper_group, EXAMPLE_TOTAL_RATE, discipline="priority", method="newton"
        )
        assert res.mean_response_time == pytest.approx(
            TABLE2_T_PRIME, abs=SEVEN_DECIMALS
        )
        assert np.allclose(res.generic_rates, TABLE2_RATES, atol=SEVEN_DECIMALS)


class TestValidationAndResult:
    def test_bad_tol(self, paper_group):
        with pytest.raises(ParameterError):
            solve_newton(paper_group, EXAMPLE_TOTAL_RATE, tol=0.0)

    def test_result_metadata(self, paper_group):
        res = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        assert res.method == "newton-dual-ascent"
        assert res.converged
        assert res.iterations >= 1
        assert res.metadata["inner_sweeps"] >= 1

    def test_equal_marginals_at_optimum(self, paper_group):
        res = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        loaded = [
            marginal_cost(
                s.size,
                s.xbar(paper_group.rbar),
                s.special_rate,
                float(lam),
                EXAMPLE_TOTAL_RATE,
                "fcfs",
            )
            for s, lam in zip(paper_group.servers, res.generic_rates)
            if lam > 1e-6
        ]
        assert max(loaded) - min(loaded) <= 1e-8 * max(loaded)
