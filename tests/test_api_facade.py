"""The ``repro.solve`` facade, method registry, and sweep solving.

The facade is the one public entry point.  Tables 1 and 2 must
reproduce through it to all seven printed decimals.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import SolveResult, solve, solve_sweep
from repro.api import METHOD_ALIASES, as_group
from repro.core.exceptions import ParameterError
from repro.core.result import LoadDistributionResult
from repro.core.server import BladeServer, BladeServerGroup
from repro.core.solvers import (
    AUTO_NEWTON_THRESHOLD,
    available_methods,
    dispatch,
    register_method,
    registered_methods,
    resolve_method,
    warm_startable_methods,
)
from repro.workloads.paper import (
    EXAMPLE_TOTAL_RATE,
    TABLE1_RATES,
    TABLE1_T_PRIME,
    TABLE1_UTILIZATIONS,
    TABLE2_RATES,
    TABLE2_T_PRIME,
    TABLE2_UTILIZATIONS,
)
from repro.workloads.sweeps import sweep_rates

#: Half a unit in the seventh printed decimal place.
TOL = 5e-8


class TestFacadeReproducesPaperTables:
    @pytest.mark.parametrize("method", ["paper", "bisection", "kkt", "slsqp"])
    def test_table1_t_prime(self, paper_group, method):
        res = solve(paper_group, EXAMPLE_TOTAL_RATE, discipline="fcfs", method=method)
        assert res.mean_response_time == pytest.approx(TABLE1_T_PRIME, abs=TOL)

    def test_table1_rates_and_utilizations(self, paper_group):
        res = solve(paper_group, EXAMPLE_TOTAL_RATE, discipline="fcfs")
        assert np.allclose(res.generic_rates, TABLE1_RATES, atol=TOL)
        assert np.allclose(res.utilizations, TABLE1_UTILIZATIONS, atol=TOL)

    @pytest.mark.parametrize("method", ["paper", "bisection", "kkt", "slsqp"])
    def test_table2_t_prime(self, paper_group, method):
        res = solve(
            paper_group, EXAMPLE_TOTAL_RATE, discipline="priority", method=method
        )
        assert res.mean_response_time == pytest.approx(TABLE2_T_PRIME, abs=TOL)

    def test_table2_rates_and_utilizations(self, paper_group):
        res = solve(paper_group, EXAMPLE_TOTAL_RATE, discipline="priority")
        assert np.allclose(res.generic_rates, TABLE2_RATES, atol=TOL)
        assert np.allclose(res.utilizations, TABLE2_UTILIZATIONS, atol=TOL)


class TestSolveResult:
    def test_is_a_load_distribution_result(self, paper_group):
        res = solve(paper_group, EXAMPLE_TOTAL_RATE)
        assert isinstance(res, SolveResult)
        assert isinstance(res, LoadDistributionResult)

    def test_records_backend_and_elapsed(self, paper_group):
        res = solve(paper_group, EXAMPLE_TOTAL_RATE, method="kkt")
        assert res.backend == "kkt"
        assert res.elapsed_seconds > 0.0

    def test_auto_resolves_to_a_concrete_backend(self, paper_group):
        res = solve(paper_group, EXAMPLE_TOTAL_RATE, method="auto")
        assert res.backend in registered_methods()
        assert res.backend == resolve_method(paper_group, "auto")

    def test_paper_alias_maps_to_bisection(self, paper_group):
        assert METHOD_ALIASES["paper"] == "bisection"
        res = solve(paper_group, EXAMPLE_TOTAL_RATE, method="paper")
        assert res.backend == "bisection"


class TestInputCoercion:
    def test_accepts_a_server_sequence(self, paper_group):
        servers = [
            BladeServer(
                size=srv.size, speed=srv.speed, special_rate=srv.special_rate
            )
            for srv in paper_group
        ]
        res = solve(servers, EXAMPLE_TOTAL_RATE, discipline="fcfs")
        assert res.mean_response_time == pytest.approx(TABLE1_T_PRIME, abs=TOL)

    def test_as_group_passthrough(self, paper_group):
        assert as_group(paper_group) is paper_group

    def test_unknown_method_raises(self, paper_group):
        with pytest.raises(ParameterError, match="unknown"):
            solve(paper_group, EXAMPLE_TOTAL_RATE, method="simplex")


class TestMethodRegistry:
    def test_builtin_backends_registered(self):
        names = registered_methods()
        assert {
            "bisection",
            "kkt",
            "slsqp",
            "closed-form",
            "newton",
        } <= set(names)
        assert "vectorized" not in names
        assert "auto" in available_methods()
        assert "auto" not in names

    def test_warm_startable_set(self):
        assert {"bisection", "newton"} <= warm_startable_methods()
        assert "kkt" not in warm_startable_methods()

    def test_auto_picks_newton_for_large_groups(self):
        n = AUTO_NEWTON_THRESHOLD
        big = BladeServerGroup.from_arrays(
            sizes=[2] * n, speeds=[1.0] * n, rbar=1.0
        )
        assert resolve_method(big, "auto") == "newton"

    def test_auto_picks_closed_form_for_all_single_core(self, single_blade_group):
        assert resolve_method(single_blade_group, "auto") == "closed-form"

    def test_register_rejects_duplicates_and_reserved_names(self, paper_group):
        def fake(group, lam, discipline, **kw):  # pragma: no cover - never called
            raise AssertionError

        with pytest.raises(ParameterError):
            register_method("kkt", fake)
        with pytest.raises(ParameterError):
            register_method("auto", fake)

    def test_register_replace_roundtrip(self, paper_group):
        calls = []
        original = registered_methods()["kkt"]

        def spy(group, lam, discipline=None, **kw):
            calls.append(kw)
            return original.fn(group, lam, discipline, **kw)

        register_method("kkt", spy, replace=True)
        try:
            res = solve(paper_group, EXAMPLE_TOTAL_RATE, method="kkt")
            assert calls, "registered backend must be dispatched to"
            assert res.mean_response_time == pytest.approx(TABLE1_T_PRIME, abs=TOL)
        finally:
            register_method(
                "kkt", original.fn, warm_startable=original.warm_startable,
                replace=True,
            )


class TestRouterRegistryFacade:
    """The routing-policy registry through the top-level facade,
    mirroring the solver method-registry surface."""

    def test_builtin_policies_registered(self):
        assert {"swrr", "wrr", "alias", "pod", "jiq"} <= set(
            repro.available_routers()
        )
        specs = repro.registered_routers()
        assert specs["pod"].state_aware and not specs["swrr"].state_aware

    def test_routing_config_round_trips_through_runtime_config(self):
        config = repro.RuntimeConfig(
            routing=repro.RoutingConfig(policy="pod", d=3)
        )
        back = repro.RuntimeConfig.from_dict(config.to_dict())
        assert back == config
        assert back.routing == repro.RoutingConfig(policy="pod", d=3)

    def test_unknown_policy_raises_with_available_names(self):
        from repro.runtime.policies import build_router

        with pytest.raises(ParameterError, match="available:"):
            build_router(
                repro.RoutingConfig(policy="banana"),
                [1.0],
                np.random.default_rng(0),
            )

    def test_register_router_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            repro.register_router("pod", lambda w, rng, cfg: None)

    def test_router_classes_exported(self):
        assert repro.OptimalPriorPowerOfDRouter is not None
        assert repro.JoinIdleQueueRouter is not None


class TestSolveSweep:
    def test_returns_solve_results_matching_pointwise(self, paper_group):
        rates = [0.5 * EXAMPLE_TOTAL_RATE, EXAMPLE_TOTAL_RATE]
        out = solve_sweep(paper_group, rates, discipline="fcfs", method="bisection")
        assert all(isinstance(r, SolveResult) for r in out)
        for lam, r in zip(rates, out):
            point = solve(paper_group, lam, discipline="fcfs", method="bisection")
            assert r.mean_response_time == pytest.approx(
                point.mean_response_time, abs=TOL
            )

    def test_cold_sweep_matches_warm_sweep(self, paper_group):
        rates = np.linspace(0.3, 0.9, 5) * paper_group.max_generic_rate
        warm = solve_sweep(paper_group, rates, method="bisection", warm_start=True)
        cold = solve_sweep(paper_group, rates, method="bisection", warm_start=False)
        for a, b in zip(warm, cold):
            assert a.mean_response_time == pytest.approx(
                b.mean_response_time, abs=1e-9
            )

    @pytest.mark.parametrize("method", ["bisection", "newton"])
    def test_warm_sweep_matches_cold_sweep(self, paper_group, method):
        rates = sweep_rates(paper_group, points=5, hi_fraction=0.85)
        warm = solve_sweep(
            paper_group, rates, method=method, warm_start=True, tol=1e-12
        )
        cold = solve_sweep(
            paper_group, rates, method=method, warm_start=False, tol=1e-12
        )
        for a, b in zip(warm, cold):
            assert abs(a.mean_response_time - b.mean_response_time) < 1e-9

    @pytest.mark.parametrize("method", ["kkt", "slsqp", "auto"])
    @pytest.mark.parametrize("discipline", ["fcfs", "priority"])
    def test_non_warmstartable_backend_falls_back(
        self, paper_group, method, discipline
    ):
        """``warm_start=True`` must be a silent no-op off the hintable path.

        The paper group has 7 servers, so ``"auto"`` resolves to kkt like
        ``"kkt"`` itself; ``solve_sweep`` must not forward a ``phi_hint``
        those solvers would reject, and every point must still match the
        warm-started bisection reference.
        """
        assert resolve_method(paper_group, method) not in warm_startable_methods()
        rates = sweep_rates(paper_group, points=3, hi_fraction=0.8)
        results = solve_sweep(
            paper_group, rates, discipline=discipline, method=method, warm_start=True
        )
        reference = solve_sweep(
            paper_group, rates, discipline=discipline, method="bisection", tol=1e-12
        )
        assert len(results) == 3
        for res, ref, lam in zip(results, reference, rates):
            assert abs(sum(res.generic_rates) - lam) < 1e-6
            assert res.mean_response_time == pytest.approx(
                ref.mean_response_time, abs=5e-6
            )
            np.testing.assert_allclose(
                res.generic_rates, ref.generic_rates, atol=5e-4
            )

    def test_warm_start_flag_is_inert_for_non_warmstartable(self, paper_group):
        rates = sweep_rates(paper_group, points=3, hi_fraction=0.8)
        warm = solve_sweep(paper_group, rates, method="kkt", warm_start=True)
        cold = solve_sweep(paper_group, rates, method="kkt", warm_start=False)
        for w, c in zip(warm, cold):
            assert w.mean_response_time == c.mean_response_time
            np.testing.assert_array_equal(w.generic_rates, c.generic_rates)


class TestPublicSurface:
    def test_curated_all_is_importable_and_complete(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
        for required in (
            "solve",
            "SolveResult",
            "solve_sweep",
            "run_closed_loop",
            "ObsConfig",
            "FaultSchedule",
            "random_fault_schedule",
            "RoutingConfig",
            "register_router",
            "available_routers",
        ):
            assert required in repro.__all__

    def test_facade_signature_is_keyword_only_past_lam(self):
        import inspect

        sig = inspect.signature(solve)
        params = list(sig.parameters.values())
        assert [p.name for p in params[:2]] == ["servers", "lam"]
        assert all(
            p.kind is inspect.Parameter.KEYWORD_ONLY
            for p in params[2:]
            if p.kind is not inspect.Parameter.VAR_KEYWORD
        )

    def test_dispatch_is_not_deprecated(self, paper_group, recwarn):
        dispatch(paper_group, EXAMPLE_TOTAL_RATE)
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
