"""Tests for the optimizer backends and their mutual agreement.

Covers the paper's bisection (Figs. 2–3), the Brent/KKT solver, SLSQP,
and the closed forms; the regression anchors against the published
Tables 1–2 live in ``test_paper_tables.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bisection import calculate_t_prime, find_lambda_i, solve_bisection
from repro.core.closed_form import solve_closed_form
from repro.core.exceptions import InfeasibleError, ParameterError
from repro.core.kkt import rate_for_multiplier, solve_kkt
from repro.core.newton import solve_newton
from repro.core.nlp import solve_nlp
from repro.core.objective import gradient, marginal_cost
from repro.core.server import BladeServerGroup
from repro.core.solvers import (
    AUTO_NEWTON_THRESHOLD,
    available_methods,
    dispatch,
    resolve_method,
)
from repro.shard import solve_sharded
from repro.workloads.paper import EXAMPLE_TOTAL_RATE

DISCIPLINES = ["fcfs", "priority"]


class TestFindLambdaI:
    """Paper Fig. 2 inner bisection."""

    def test_root_has_target_marginal(self):
        m, xbar, lam_s, total = 4, 0.8, 1.0, 5.0
        phi = 0.5
        lam = find_lambda_i(m, xbar, lam_s, total, phi)
        assert lam > 0
        assert marginal_cost(m, xbar, lam_s, lam, total) == pytest.approx(
            phi, rel=1e-6
        )

    def test_zero_when_phi_below_marginal_at_zero(self):
        m, xbar, lam_s, total = 4, 0.8, 1.0, 5.0
        phi0 = marginal_cost(m, xbar, lam_s, 0.0, total)
        assert find_lambda_i(m, xbar, lam_s, total, 0.5 * phi0) == 0.0

    def test_clipped_below_capacity(self):
        m, xbar, lam_s, total = 2, 1.0, 0.5, 5.0
        cap = m / xbar - lam_s
        lam = find_lambda_i(m, xbar, lam_s, total, phi=1e9)
        assert lam < cap

    def test_increasing_in_phi(self):
        m, xbar, lam_s, total = 4, 0.8, 1.0, 5.0
        lams = [find_lambda_i(m, xbar, lam_s, total, p) for p in (0.3, 0.5, 1.0, 3.0)]
        assert all(b >= a for a, b in zip(lams, lams[1:]))

    def test_bad_tol(self):
        with pytest.raises(ParameterError):
            find_lambda_i(2, 1.0, 0.0, 1.0, 0.5, tol=0.0)


class TestRateForMultiplier:
    """KKT counterpart of Fig. 2 — must agree with it."""

    @pytest.mark.parametrize("phi", [0.2, 0.4, 0.8, 2.0])
    def test_agrees_with_bisection(self, phi):
        m, xbar, lam_s, total = 6, 0.7, 2.0, 8.0
        a = find_lambda_i(m, xbar, lam_s, total, phi)
        b = rate_for_multiplier(m, xbar, lam_s, total, phi)
        assert a == pytest.approx(b, abs=1e-8)


class TestSolverAgreement:
    """All backends must find the same optimum."""

    @pytest.mark.parametrize("disc", DISCIPLINES)
    @pytest.mark.parametrize("load", [0.2, 0.5, 0.8, 0.92])
    def test_bisection_vs_kkt(self, paper_group, disc, load):
        lam = load * paper_group.max_generic_rate
        a = calculate_t_prime(paper_group, lam, disc)
        b = solve_kkt(paper_group, lam, disc)
        assert a.mean_response_time == pytest.approx(
            b.mean_response_time, rel=1e-8
        )
        assert np.allclose(a.generic_rates, b.generic_rates, atol=1e-5)

    @pytest.mark.parametrize("disc", DISCIPLINES)
    @pytest.mark.parametrize("load", [0.3, 0.7])
    def test_slsqp_vs_kkt(self, paper_group, disc, load):
        lam = load * paper_group.max_generic_rate
        a = solve_nlp(paper_group, lam, disc)
        b = solve_kkt(paper_group, lam, disc)
        assert a.mean_response_time == pytest.approx(
            b.mean_response_time, rel=1e-7
        )

    @pytest.mark.parametrize("disc", DISCIPLINES)
    @pytest.mark.parametrize("load", [0.2, 0.5, 0.85])
    def test_closed_form_vs_kkt(self, single_blade_group, disc, load):
        lam = load * single_blade_group.max_generic_rate
        a = solve_closed_form(single_blade_group, lam, disc)
        b = solve_kkt(single_blade_group, lam, disc)
        assert a.mean_response_time == pytest.approx(
            b.mean_response_time, rel=1e-9
        )
        assert np.allclose(a.generic_rates, b.generic_rates, atol=1e-7)


class TestOptimalityConditions:
    """KKT structure of the returned solutions."""

    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_equal_marginals_on_loaded_servers(self, paper_group, disc):
        lam = 0.6 * paper_group.max_generic_rate
        res = solve_kkt(paper_group, lam, disc)
        grads = gradient(paper_group, res.generic_rates, disc)
        loaded = res.generic_rates > 1e-9
        assert loaded.any()
        spread = grads[loaded].max() - grads[loaded].min()
        assert spread < 1e-6
        # phi matches the common marginal.
        assert res.phi == pytest.approx(float(grads[loaded].mean()), rel=1e-5)

    def test_unloaded_servers_have_higher_marginal(self):
        # Build an instance where one server is parked at zero: a very
        # slow, heavily preloaded server at low total load.
        group = BladeServerGroup.from_arrays(
            [4, 1], [2.0, 0.1], [0.0, 0.05], rbar=1.0
        )
        res = solve_kkt(group, 0.5, "fcfs")
        assert res.generic_rates[1] == pytest.approx(0.0, abs=1e-9)
        grads = gradient(group, np.maximum(res.generic_rates, 0.0), "fcfs")
        assert grads[1] > res.phi - 1e-9

    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_beats_random_feasible_points(self, paper_group, disc):
        rng = np.random.default_rng(1234)
        lam = 0.5 * paper_group.max_generic_rate
        opt = solve_kkt(paper_group, lam, disc)
        caps = paper_group.spare_capacities
        for _ in range(20):
            w = rng.random(paper_group.n)
            rates = w / w.sum() * lam
            if np.any(rates >= caps):
                continue
            t = paper_group.mean_response_time(rates, disc)
            assert t >= opt.mean_response_time - 1e-10

    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_budget_constraint_exact(self, paper_group, disc):
        lam = 0.4 * paper_group.max_generic_rate
        for method in ("bisection", "kkt", "slsqp"):
            res = dispatch(paper_group, lam, disc, method)
            assert res.total_rate == pytest.approx(lam, rel=1e-12)

    def test_all_rates_stable(self, paper_group):
        lam = 0.9 * paper_group.max_generic_rate
        res = solve_kkt(paper_group, lam)
        assert np.all(res.generic_rates < paper_group.spare_capacities)
        assert np.all(res.utilizations < 1.0)


class TestKKTBudgetRepair:
    """Regressions for the final budget step of :func:`solve_kkt`.

    Historically the solver finished with an unconditional proportional
    rescale ``rates * (total / sum)``: applied after
    ``_equalizing_repair`` it re-perturbed the repaired vector (moving
    exactly the steep servers the repair protected), and applied to a
    cap-pinned vector with a sub-threshold residual it could push a
    rate past the ``(1 - _STABILITY_MARGIN) * cap`` stability bound.
    """

    @staticmethod
    def _flat_marginal_group():
        # Identical large-m servers at low utilization have numerically
        # flat marginal-cost curves: F(phi) jumps across the root and
        # forces the equalizing-repair path.  The single small server
        # has a steep marginal the repair must leave untouched.
        from repro.core.server import BladeServer

        return BladeServerGroup(
            [BladeServer(size=16, speed=1.0) for _ in range(6)]
            + [BladeServer(size=1, speed=2.0)],
            rbar=1.0,
        )

    def test_flat_marginal_repair_path_triggers(self, monkeypatch):
        import repro.core.kkt as kkt_mod

        calls = []
        orig = kkt_mod._equalizing_repair

        def spy(*args, **kwargs):
            out = orig(*args, **kwargs)
            calls.append(out.copy())
            return out

        monkeypatch.setattr(kkt_mod, "_equalizing_repair", spy)
        group = self._flat_marginal_group()
        lam = 0.3 * group.max_generic_rate
        res = solve_kkt(group, lam)
        assert calls, "flat-marginal group must exercise the repair path"
        # The repaired vector is returned as-is: the old unconditional
        # rescale multiplied it by total/sum, so even a roundoff-level
        # residual broke bitwise identity with the repair output.
        assert np.array_equal(res.generic_rates, calls[-1])

    def test_flat_marginal_budget_caps_and_pricing(self):
        import repro.core.kkt as kkt_mod

        group = self._flat_marginal_group()
        lam = 0.3 * group.max_generic_rate
        res = solve_kkt(group, lam)
        rates = res.generic_rates
        assert float(abs(rates.sum() - lam)) <= 1e-9 * lam
        hard = (1.0 - kkt_mod._STABILITY_MARGIN) * group.spare_capacities
        assert np.all(rates <= hard)
        # The steep server keeps its KKT price: its marginal equals phi
        # far more tightly than a proportional rescale would leave it.
        steep = marginal_cost(1, 0.5, 0.0, float(rates[-1]), lam, "fcfs")
        assert steep == pytest.approx(res.phi, rel=1e-6)

    @pytest.mark.parametrize("frac", [0.999, 1.0 - 1e-12])
    def test_near_saturated_rates_respect_stability_bound(self, frac):
        import repro.core.kkt as kkt_mod

        group = self._flat_marginal_group()
        lam = frac * group.max_generic_rate
        res = solve_kkt(group, lam)
        hard = (1.0 - kkt_mod._STABILITY_MARGIN) * group.spare_capacities
        assert np.all(res.generic_rates <= hard)
        assert float(abs(res.generic_rates.sum() - lam)) <= 1e-9 * max(lam, 1.0)

    def test_iterations_include_brent_work(self, paper_group):
        from repro.workloads.paper import EXAMPLE_TOTAL_RATE

        res = solve_kkt(paper_group, EXAMPLE_TOTAL_RATE)
        # Bracket doubling alone reports 1-2 here; Brent needs ~10 more.
        assert res.iterations >= 8


class TestFacade:
    def test_available_methods(self):
        methods = available_methods()
        assert set(methods) >= {"bisection", "kkt", "slsqp", "closed-form", "auto"}

    def test_auto_picks_closed_form_for_single_blades(self, single_blade_group):
        res = dispatch(single_blade_group, 1.0, "fcfs", "auto")
        assert res.method.startswith("closed-form")
        n = AUTO_NEWTON_THRESHOLD
        big = BladeServerGroup.from_arrays([1] * n, [1.0] * n)
        assert resolve_method(big, "auto") == "closed-form"

    def test_auto_picks_kkt_otherwise(self, paper_group):
        res = dispatch(paper_group, 10.0, "fcfs", "auto")
        assert res.method == "kkt-brentq"

    def test_auto_keeps_kkt_for_small_groups(self, paper_group):
        assert AUTO_NEWTON_THRESHOLD == 16
        assert resolve_method(paper_group, "auto") == "kkt"
        n = AUTO_NEWTON_THRESHOLD - 1
        below = BladeServerGroup.from_arrays([2] * n, [1.0] * n)
        assert resolve_method(below, "auto") == "kkt"

    def test_auto_picks_newton_for_large_groups(self):
        n = AUTO_NEWTON_THRESHOLD
        group = BladeServerGroup.from_arrays([2] * (n - 1) + [1], [1.0] * n)
        assert resolve_method(group, "auto") == "newton"
        res = dispatch(group, 0.5 * group.max_generic_rate, "fcfs", "auto")
        assert res.method == "newton-dual-ascent"

    def test_unknown_method(self, paper_group):
        with pytest.raises(ParameterError):
            dispatch(paper_group, 10.0, "fcfs", "magic")

    def test_infeasible_rate(self, paper_group):
        with pytest.raises(InfeasibleError):
            dispatch(
                paper_group, paper_group.max_generic_rate, "fcfs"
            )

    def test_closed_form_rejects_multi_blade(self, paper_group):
        with pytest.raises(ParameterError):
            dispatch(paper_group, 10.0, "fcfs", "closed-form")

    def test_result_fields(self, paper_group):
        res = dispatch(paper_group, 20.0, "priority", "kkt")
        assert res.n == 7
        assert res.discipline.value == "priority"
        assert res.converged
        assert np.isclose(res.fractions.sum(), 1.0)
        assert "T'" in res.summary()


class TestEdgeCases:
    def test_single_server_group(self):
        group = BladeServerGroup.from_arrays([4], [1.0], [1.0])
        res = dispatch(group, 2.0, "fcfs", "kkt")
        assert res.generic_rates[0] == pytest.approx(2.0)

    def test_very_low_load(self, paper_group):
        res = dispatch(paper_group, 1e-4, "fcfs", "kkt")
        assert res.total_rate == pytest.approx(1e-4, rel=1e-9)
        # At vanishing load everything goes to the fastest server(s).
        assert res.mean_response_time < paper_group.xbars.max()

    def test_bisection_tiny_load_regression(self, paper_group):
        # Regression: the phi midpoint used to fall below every server's
        # zero-load marginal at tiny total rates, yielding an all-zero
        # rate vector and a crash instead of a distribution.
        for lam in (1e-6, 1e-3, 0.05):
            res = calculate_t_prime(paper_group, lam, "fcfs")
            assert res.total_rate == pytest.approx(lam, rel=1e-9)
            ref = solve_kkt(paper_group, lam, "fcfs")
            assert res.mean_response_time == pytest.approx(
                ref.mean_response_time, rel=1e-6
            )

    def test_near_saturation(self, paper_group):
        lam = 0.999 * paper_group.max_generic_rate
        res = solve_kkt(paper_group, lam)
        assert np.all(res.utilizations < 1.0)
        assert res.mean_response_time > 5.0  # deep in the blow-up regime

    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_priority_always_worse(self, paper_group, disc):
        lam = 0.5 * paper_group.max_generic_rate
        t_f = solve_kkt(paper_group, lam, "fcfs").mean_response_time
        t_p = solve_kkt(paper_group, lam, "priority").mean_response_time
        assert t_p > t_f

    def test_homogeneous_group_splits_equally(self):
        group = BladeServerGroup.with_special_fraction(
            [4, 4, 4], [1.0, 1.0, 1.0], fraction=0.3
        )
        res = solve_kkt(group, 0.5 * group.max_generic_rate)
        assert np.allclose(res.generic_rates, res.generic_rates[0], rtol=1e-6)


class TestToleranceValidation:
    """A tolerance that is not finite and positive is a usage error.

    ``tol=inf`` would otherwise stop every bisection and Newton loop at
    once and report a suboptimal split as converged.
    """

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "solver", [solve_newton, solve_bisection, solve_sharded]
    )
    def test_rejected(self, paper_group, solver, tol):
        with pytest.raises(ParameterError, match="tol"):
            solver(paper_group, EXAMPLE_TOTAL_RATE, "fcfs", tol=tol)
