"""Unit tests for the fault-injection framework and the supervisor.

Covers the declarative schedule layer (validation, serialization,
reproducible random draws), the three injector families in isolation,
and the resilience supervisor's policies one by one: the fallback
chain, the circuit breaker with pinned splits, the invariant watchdog,
and the dark-cluster shed-all path.  The end-to-end chaos acceptance
runs live in ``test_chaos_acceptance.py``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.exceptions import (
    ClusterDownError,
    ConvergenceError,
    ParameterError,
    SolverTimeoutError,
)
from repro.core.server import BladeServerGroup
from repro.core.solvers import dispatch
from repro.faults import (
    FaultPlan,
    FaultSchedule,
    FaultSpec,
    FaultyRateEstimator,
    ResilienceSupervisor,
    SolverFaultInjector,
    SupervisorConfig,
    health_control_events,
    proportional_split,
    random_fault_schedule,
)
from repro.faults.supervisor import Breaker
from repro.runtime import (
    EwmaRateEstimator,
    HealthTracker,
    ResolveController,
    RuntimeMetrics,
)


@pytest.fixture
def group():
    return BladeServerGroup.from_arrays(
        sizes=[2, 3, 4],
        speeds=[1.0, 1.2, 1.5],
        special_rates=[0.3, 0.4, 0.5],
        rbar=1.0,
    )


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            FaultSpec("quantum-decoherence", 0.0, 1.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ParameterError):
            FaultSpec("solver-error", 5.0, 5.0)
        with pytest.raises(ParameterError):
            FaultSpec("solver-error", -1.0, 5.0)
        with pytest.raises(ParameterError):
            FaultSpec("solver-error", 0.0, math.inf)

    def test_bad_params_rejected(self):
        with pytest.raises(ParameterError):
            FaultSpec("solver-error", 0.0, 1.0, {"p": 0.0})
        with pytest.raises(ParameterError):
            FaultSpec("solver-latency", 0.0, 1.0, {"latency": -1.0})
        with pytest.raises(ParameterError):
            FaultSpec("estimator-noise", 0.0, 1.0, {"sigma": 0.0})
        with pytest.raises(ParameterError):
            FaultSpec("server-down", 0.0, 1.0)  # missing server index
        with pytest.raises(ParameterError):
            FaultSpec("server-flap", 0.0, 1.0, {"server": 0})  # missing period
        with pytest.raises(ParameterError):
            FaultSpec("correlated-outage", 0.0, 1.0, {"servers": ()})
        with pytest.raises(ParameterError):
            FaultSpec("solver-error", 0.0, 1.0, {"methods": ()})

    def test_active_window_is_half_open(self):
        spec = FaultSpec("solver-error", 10.0, 20.0)
        assert not spec.active(9.999)
        assert spec.active(10.0)
        assert spec.active(19.999)
        assert not spec.active(20.0)

    def test_dict_round_trip(self):
        spec = FaultSpec("server-down", 1.0, 2.0, {"server": 1, "delay": 0.5})
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultSchedule:
    def test_specs_sorted_and_filterable(self):
        sched = FaultSchedule(
            [
                FaultSpec("estimator-bias", 50.0, 60.0, {"factor": 2.0}),
                FaultSpec("solver-error", 10.0, 20.0),
                FaultSpec("server-down", 30.0, 40.0, {"server": 0}),
            ],
            seed=9,
        )
        assert [s.start for s in sched.specs] == [10.0, 30.0, 50.0]
        assert len(sched) == 3
        assert sched.last_fault_end == 60.0
        solver = sched.of_kinds({"solver-error"})
        assert len(solver) == 1 and solver[0].kind == "solver-error"

    def test_dict_round_trip(self):
        sched = FaultSchedule(
            [FaultSpec("solver-error", 1.0, 2.0, {"p": 0.7})], seed=42
        )
        clone = FaultSchedule.from_dict(sched.to_dict())
        assert clone.seed == 42
        assert clone.specs == sched.specs

    def test_random_schedule_reproducible(self):
        a = random_fault_schedule(3, 2000.0, seed=7)
        b = random_fault_schedule(3, 2000.0, seed=7)
        assert a.specs == b.specs
        assert a.seed == b.seed == 7
        c = random_fault_schedule(3, 2000.0, seed=8)
        assert c.specs != a.specs

    def test_random_schedule_respects_quiet_tail(self):
        for seed in range(30):
            sched = random_fault_schedule(3, 1000.0, seed, quiet_tail=0.4)
            assert sched.last_fault_end <= 600.0 + 1e-9

    def test_random_schedule_can_forbid_cluster_down(self):
        for seed in range(40):
            sched = random_fault_schedule(
                3, 1000.0, seed, allow_cluster_down=False
            )
            for spec in sched.of_kinds({"correlated-outage"}):
                assert len(spec.params["servers"]) < 3


class TestSolverFaultInjector:
    def _wrapped(self, specs, clock):
        inj = SolverFaultInjector(
            specs, np.random.default_rng(0), clock
        )
        return inj, inj.wrap(dispatch)

    def test_raises_inside_window_passes_outside(self, group):
        t = {"now": 0.0}
        inj, solve = self._wrapped(
            [FaultSpec("solver-error", 100.0, 200.0)], lambda: t["now"]
        )
        res = solve(group, 3.0, "fcfs", method="kkt")
        assert res.converged
        t["now"] = 150.0
        with pytest.raises(ConvergenceError):
            solve(group, 3.0, "fcfs", method="kkt")
        assert inj.injected == [(150.0, "solver-error", "kkt")]
        t["now"] = 250.0
        assert solve(group, 3.0, "fcfs", method="kkt").converged

    def test_latency_fault_raises_timeout_with_latency(self, group):
        _, solve = self._wrapped(
            [FaultSpec("solver-latency", 0.0, 10.0, {"latency": 2.5})],
            lambda: 5.0,
        )
        with pytest.raises(SolverTimeoutError) as excinfo:
            solve(group, 3.0, "fcfs", method="kkt")
        assert excinfo.value.latency == 2.5

    def test_method_scoping(self, group):
        _, solve = self._wrapped(
            [FaultSpec("solver-error", 0.0, 10.0, {"methods": ("kkt",)})],
            lambda: 5.0,
        )
        with pytest.raises(ConvergenceError):
            solve(group, 3.0, "fcfs", method="kkt")
        # The scalar-bisection rung is outside the blast radius.
        assert solve(group, 3.0, "fcfs", method="bisection").converged

    def test_rejects_foreign_kinds(self):
        with pytest.raises(ParameterError):
            SolverFaultInjector(
                [FaultSpec("server-down", 0.0, 1.0, {"server": 0})],
                np.random.default_rng(0),
                lambda: 0.0,
            )


class TestFaultyRateEstimator:
    def test_dropout_drops_observations(self):
        inner = EwmaRateEstimator(10.0)
        faulty = FaultyRateEstimator(
            inner,
            [FaultSpec("estimator-dropout", 0.0, 100.0, {"p": 1.0})],
            np.random.default_rng(0),
            lambda: 0.0,
        )
        for t in range(1, 50):
            faulty.observe(float(t))
        assert faulty.dropped == 49
        assert inner.estimate(50.0) == 0.0

    def test_bias_scales_estimate(self):
        inner = EwmaRateEstimator(10.0, initial_rate=4.0)
        faulty = FaultyRateEstimator(
            inner,
            [FaultSpec("estimator-bias", 0.0, 100.0, {"factor": 2.0})],
            np.random.default_rng(0),
            lambda: 0.0,
        )
        assert faulty.estimate(0.0) == pytest.approx(2.0 * inner.estimate(0.0))

    def test_noise_is_seeded(self):
        def build(seed):
            return FaultyRateEstimator(
                EwmaRateEstimator(10.0, initial_rate=4.0),
                [FaultSpec("estimator-noise", 0.0, 100.0, {"sigma": 0.3})],
                np.random.default_rng(seed),
                lambda: 0.0,
            )

        a = [build(1).estimate(50.0) for _ in range(3)]
        b = [build(1).estimate(50.0) for _ in range(3)]
        assert a == b
        assert build(2).estimate(50.0) != a[0]

    def test_estimate_floor_is_positive(self):
        faulty = FaultyRateEstimator(
            EwmaRateEstimator(10.0, initial_rate=0.0),
            [FaultSpec("estimator-bias", 0.0, 100.0, {"factor": 0.5})],
            np.random.default_rng(0),
            lambda: 0.0,
        )
        assert faulty.estimate(10.0) > 0.0


class _SignalRecorder:
    """Minimal runtime stand-in capturing delivered health signals."""

    def __init__(self):
        self.delivered = []

    def server_down(self, index, now):
        self.delivered.append((now, index, "down"))

    def server_up(self, index, now):
        self.delivered.append((now, index, "up"))


class TestHealthControlEvents:
    def test_down_window_delivers_both_edges(self):
        rec = _SignalRecorder()
        events, timeline = health_control_events(
            [FaultSpec("server-down", 10.0, 30.0, {"server": 1})],
            rec,
            horizon=100.0,
        )
        for t, action in events:
            action(None, t)
        assert rec.delivered == [(10.0, 1, "down"), (30.0, 1, "up")]
        assert timeline == [(10.0, 1, "down"), (30.0, 1, "up")]

    def test_delay_shifts_signal_delivery(self):
        _, timeline = health_control_events(
            [FaultSpec("server-down", 10.0, 30.0, {"server": 0, "delay": 5.0})],
            _SignalRecorder(),
            horizon=100.0,
        )
        assert timeline == [(15.0, 0, "down"), (35.0, 0, "up")]

    def test_flap_square_wave_ends_up(self):
        _, timeline = health_control_events(
            [FaultSpec("server-flap", 0.0, 40.0, {"server": 2, "period": 20.0})],
            _SignalRecorder(),
            horizon=100.0,
        )
        kinds = [k for _, _, k in timeline]
        assert kinds == ["down", "up", "down", "up", "up"]
        assert timeline[-1] == (40.0, 2, "up")

    def test_correlated_outage_hits_every_listed_server(self):
        _, timeline = health_control_events(
            [FaultSpec("correlated-outage", 10.0, 20.0, {"servers": (0, 2)})],
            _SignalRecorder(),
            horizon=100.0,
        )
        downs = {(s, k) for _, s, k in timeline if k == "down"}
        ups = {(s, k) for _, s, k in timeline if k == "up"}
        assert downs == {(0, "down"), (2, "down")}
        assert ups == {(0, "up"), (2, "up")}

    def test_signals_past_horizon_are_dropped(self):
        _, timeline = health_control_events(
            [FaultSpec("server-down", 10.0, 300.0, {"server": 0})],
            _SignalRecorder(),
            horizon=100.0,
        )
        assert timeline == [(10.0, 0, "down")]


class TestFaultPlan:
    def test_wrapping_is_identity_without_matching_specs(self, group):
        plan = FaultPlan(FaultSchedule([], seed=0))
        assert plan.wrap_solver(dispatch) is (
            dispatch
        )
        est = EwmaRateEstimator(10.0)
        assert plan.wrap_estimator(est) is est

    def test_clock_binding_drives_injection(self, group):
        plan = FaultPlan(
            FaultSchedule([FaultSpec("solver-error", 100.0, 200.0)], seed=0)
        )
        t = {"now": 150.0}
        plan.bind_clock(lambda: t["now"])
        solve = plan.wrap_solver(dispatch)
        with pytest.raises(ConvergenceError):
            solve(group, 3.0, "fcfs", method="kkt")
        t["now"] = 250.0
        assert solve(group, 3.0, "fcfs", method="kkt").converged


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SupervisorConfig(retries=-1)
        with pytest.raises(ParameterError):
            SupervisorConfig(backoff=-1.0)
        with pytest.raises(ParameterError):
            SupervisorConfig(breaker_threshold=0)
        with pytest.raises(ParameterError):
            SupervisorConfig(breaker_cooldown=0.0)
        with pytest.raises(ParameterError):
            SupervisorConfig(rho_cap=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"backoff": -1.0},
            {"backoff": math.nan},
            {"breaker_threshold": 0},
            {"breaker_cooldown": 0.0},
            {"breaker_cooldown": math.nan},
            {"breaker_cooldown": math.inf},
        ],
    )
    def test_shard_config_shares_the_breaker_rules(self, kwargs):
        from repro.shard import ShardSupervisorConfig

        with pytest.raises(ParameterError):
            SupervisorConfig(**kwargs)
        with pytest.raises(ParameterError):
            ShardSupervisorConfig(**kwargs)


class TestBreaker:
    CFG = SupervisorConfig(
        retries=2, backoff=10.0, breaker_threshold=2, breaker_cooldown=50.0
    )

    def _opened(self):
        """A breaker that opened at t = 5 (two failures)."""
        breaker = Breaker(self.CFG)
        assert breaker.fail(0.0) is None
        assert breaker.fail(5.0) == "opened"
        return breaker

    @pytest.mark.parametrize(
        "now, state",
        [(5.0, "open"), (54.9, "open"), (55.0, "probe"), (500.0, "probe")],
    )
    def test_open_breaker_admits_one_probe_after_cooldown(self, now, state):
        breaker = self._opened()
        assert breaker.is_open and breaker.open_until == 55.0
        assert breaker.admit(now) == state
        # A probe is one attempt; a closed breaker allows 1 + retries.
        assert breaker.attempts("probe") == 1
        assert breaker.attempts("closed") == 3

    @pytest.mark.parametrize(
        "now, state", [(0.0, "blocked"), (9.9, "blocked"), (10.0, "closed")]
    )
    def test_backoff_window_blocks_the_primary(self, now, state):
        breaker = Breaker(self.CFG)
        breaker.fail(0.0)
        assert not breaker.is_open
        assert breaker.admit(now) == state

    def test_probe_success_closes_and_clears_backoff(self):
        # Backoff longer than the cooldown: the deadline outlives the probe.
        breaker = Breaker(dataclasses.replace(self.CFG, backoff=100.0))
        breaker.fail(0.0)
        breaker.fail(5.0)
        assert breaker.admit(60.0) == "probe"
        assert breaker.succeed() is True
        assert not breaker.is_open and breaker.consecutive_failures == 0
        assert breaker.admit(61.0) == "closed"
        assert breaker.succeed() is False  # already closed

    def test_probe_failure_reopens(self):
        breaker = self._opened()
        assert breaker.admit(60.0) == "probe"
        assert breaker.fail(60.0) == "reopened"
        assert breaker.open_until == 110.0
        assert breaker.admit(100.0) == "open"

    def test_state_round_trip_keeps_the_open_deadline(self):
        breaker = self._opened()
        restored = Breaker(self.CFG)
        restored.load_state(breaker.state_dict())
        assert restored.state_dict() == breaker.state_dict()
        assert restored.open_until == 55.0
        assert restored.admit(54.0) == "open"
        assert restored.admit(55.0) == "probe"


class TestProportionalSplit:
    def test_feasible_and_flagged_heuristic(self, group):
        rate = 0.8 * group.max_generic_rate
        res = proportional_split(group, rate, "fcfs")
        assert res.generic_rates.sum() == pytest.approx(rate)
        assert np.all(res.generic_rates < group.spare_capacities)
        assert np.all(res.utilizations < 1.0)
        assert math.isnan(res.phi)
        assert res.metadata["heuristic"] is True

    def test_stays_stable_at_any_admissible_rate(self, group):
        for frac in (0.1, 0.5, 0.9, 0.99):
            res = proportional_split(group, frac * group.max_generic_rate, "fcfs")
            assert np.all(res.utilizations < 1.0)


class _FlakySolver:
    """Solver wrapper that fails on demand, per backend name."""

    def __init__(self):
        self.broken_methods: set[str] = set()
        self.calls: list[str] = []
        self.tamper = None

    def __call__(self, group, total_rate, discipline, method="auto", **kwargs):
        self.calls.append(method)
        if "*" in self.broken_methods or method in self.broken_methods:
            raise ConvergenceError(f"synthetic failure for {method!r}")
        result = dispatch(
            group, total_rate, discipline, method=method, **kwargs
        )
        if self.tamper is not None:
            result = self.tamper(result)
        return result


def _make_supervisor(group, config=None, solver=None, cache_size=64):
    solver = solver if solver is not None else _FlakySolver()
    health = HealthTracker(group, utilization_cap=0.92)
    controller = ResolveController(
        health, method="kkt", solve_fn=solver, cache_size=cache_size
    )
    metrics = RuntimeMetrics.for_group_size(group.n)
    sup = ResilienceSupervisor(
        controller, health, metrics, config or SupervisorConfig()
    )
    return sup, solver, health, metrics


class TestSupervisorFallbackChain:
    def test_primary_success_is_depth_zero(self, group):
        sup, _, _, metrics = _make_supervisor(group)
        out = sup.resolve(0.0, 3.0)
        assert out.source == "primary" and out.depth == 0
        assert out.weights.sum() == pytest.approx(1.0)
        assert metrics.fallback_depth.by_source == {"primary": 1}

    def test_broken_primary_falls_to_bisection(self, group):
        sup, solver, _, metrics = _make_supervisor(group)
        solver.broken_methods = {"kkt"}
        out = sup.resolve(0.0, 3.0)
        assert out.source == "fallback:bisection" and out.depth == 1
        assert out.failures  # the swallowed primary errors are reported
        assert metrics.counters.fallback_resolves == 1
        # retries=1 means the primary was attempted twice before falling.
        assert solver.calls[:2] == ["kkt", "kkt"]
        assert metrics.counters.resolve_failures == 2
        assert metrics.incidents.counts["solver-failure"] == 2

    def test_all_backends_broken_falls_to_proportional(self, group):
        sup, solver, _, metrics = _make_supervisor(group)
        solver.broken_methods = {"*"}
        out = sup.resolve(0.0, 3.0)
        assert out.source == "fallback:proportional" and out.depth == 2
        assert out.weights.sum() == pytest.approx(1.0)
        assert math.isnan(out.result.phi)
        assert metrics.incidents.counts["fallback"] == 1

    def test_backoff_skips_primary_within_window(self, group):
        sup, solver, _, _ = _make_supervisor(
            group, SupervisorConfig(backoff=50.0, breaker_threshold=100)
        )
        solver.broken_methods = {"kkt"}
        sup.resolve(0.0, 3.0)
        solver.calls.clear()
        out = sup.resolve(10.0, 3.0)  # within backoff: no primary attempt
        assert "kkt" not in solver.calls
        assert out.source == "fallback:bisection"
        solver.broken_methods = set()
        out = sup.resolve(100.0, 3.0)  # backoff over: primary retried
        assert out.source == "primary"

    def test_cluster_down_error_from_solver_sheds_all(self, group):
        def dark(*args, **kwargs):
            raise ClusterDownError("injected darkness")

        sup, _, _, metrics = _make_supervisor(group, solver=dark)
        out = sup.resolve(0.0, 3.0)
        assert out.source == "cluster-down"
        assert out.shed_fraction == 1.0
        assert np.all(out.weights == 0.0)
        assert metrics.counters.cluster_down_events == 1


class TestSupervisorCircuitBreaker:
    CFG = SupervisorConfig(
        retries=0, backoff=0.0, breaker_threshold=3, breaker_cooldown=100.0
    )

    def _trip(self, sup, solver):
        """Three failing decisions at distinct rates (cache misses)."""
        solver.broken_methods = {"kkt"}
        last = None
        for i in range(3):
            last = sup.resolve(10.0 + i, 4.0 + 0.3 * i)
        return last

    def test_cached_split_masks_a_broken_solver(self, group):
        # A decision the LRU cache can answer never touches the solver,
        # so it cannot trip the breaker — repeat rates stay healthy.
        sup, solver, _, metrics = _make_supervisor(group, self.CFG)
        sup.resolve(0.0, 3.0)
        solver.broken_methods = {"*"}
        out = sup.resolve(10.0, 3.0)
        assert out.source == "primary" and out.cache_hit
        assert sup.circuit_state == "closed"
        assert metrics.counters.resolve_failures == 0

    def test_opens_after_threshold_and_pins(self, group):
        sup, solver, _, metrics = _make_supervisor(group, self.CFG)
        sup.resolve(0.0, 3.0)
        last = self._trip(sup, solver)
        assert sup.circuit_state == "open"
        assert metrics.counters.circuit_opens == 1
        solver.calls.clear()
        out = sup.resolve(50.0, 3.0)
        assert out.source == "circuit-pinned"
        assert out.stale_for > 0.0
        assert solver.calls == []  # no solver attempt while open
        # The pin is the last successful decision (the final fallback).
        assert np.allclose(out.weights, last.weights)
        assert metrics.counters.circuit_rejections == 1

    def test_half_open_probe_closes_on_success(self, group):
        sup, solver, _, metrics = _make_supervisor(group, self.CFG)
        sup.resolve(0.0, 3.0)
        self._trip(sup, solver)
        solver.broken_methods = set()
        out = sup.resolve(200.0, 4.0)  # cooldown elapsed: probe runs
        assert out.source == "primary"
        assert sup.circuit_state == "closed"
        assert metrics.counters.circuit_closes == 1

    def test_half_open_probe_reopens_on_failure(self, group):
        sup, solver, _, metrics = _make_supervisor(group, self.CFG)
        sup.resolve(0.0, 3.0)
        self._trip(sup, solver)
        sup.resolve(200.0, 4.0)  # probe fails: back to open
        assert sup.circuit_state == "open"
        assert metrics.counters.circuit_opens == 2
        solver.calls.clear()
        assert sup.resolve(250.0, 3.0).source == "circuit-pinned"
        assert solver.calls == []

    def test_probe_success_clears_backoff_longer_than_cooldown(self, group):
        cfg = SupervisorConfig(
            retries=0, backoff=150.0, breaker_threshold=3, breaker_cooldown=100.0
        )
        sup, solver, _, _ = _make_supervisor(group, cfg)
        solver.broken_methods = {"kkt"}
        for i, now in enumerate((10.0, 160.0, 310.0)):
            sup.resolve(now, 4.0 + 0.3 * i)
        assert sup.circuit_state == "open"
        solver.broken_methods = set()
        assert sup.resolve(410.0, 3.0).source == "primary"  # probe closes
        assert sup.circuit_state == "closed"
        solver.calls.clear()
        out = sup.resolve(420.0, 3.1)
        assert out.source == "primary"
        assert solver.calls == ["kkt"]

    def test_topology_change_invalidates_pin(self, group):
        sup, solver, health, metrics = _make_supervisor(group, self.CFG)
        pinned = sup.resolve(0.0, 3.0)
        self._trip(sup, solver)
        health.mark_down(1)  # topology changes while the breaker is open
        out = sup.resolve(50.0, 3.0)
        assert out.source == "fallback:proportional"
        assert out.weights[1] == 0.0
        assert not np.allclose(out.weights, pinned.weights)


class TestSupervisorWatchdog:
    def test_nan_weights_repaired(self, group):
        sup, solver, _, metrics = _make_supervisor(group)

        def poison(result):
            rates = result.generic_rates.copy()
            rates[0] = math.nan
            return dataclasses.replace(result, generic_rates=rates)

        solver.tamper = poison
        out = sup.resolve(0.0, 3.0)
        assert out.source == "fallback:proportional"
        assert np.all(np.isfinite(out.weights))
        assert metrics.counters.watchdog_violations == 1
        assert metrics.incidents.counts["invariant-violation"] == 1

    def test_overloaded_split_repaired(self, group):
        sup, solver, _, metrics = _make_supervisor(group)
        rate = 0.85 * group.max_generic_rate

        def concentrate(result):
            rates = np.zeros_like(result.generic_rates)
            rates[0] = result.generic_rates.sum()  # far past server 0's cap
            return dataclasses.replace(result, generic_rates=rates)

        solver.tamper = concentrate
        out = sup.resolve(0.0, rate)
        assert out.source == "fallback:proportional"
        assert metrics.counters.watchdog_violations == 1

    def test_weight_on_down_server_repaired(self, group):
        sup, solver, health, metrics = _make_supervisor(group)
        sup.resolve(0.0, 3.0)
        health.mark_down(0)

        full = np.ones(3) / 3.0

        class Fake:
            weights = full
            result = None
            shed_fraction = 0.0
            solved_rate = 3.0

        violations = sup.check_invariants(
            dataclasses.replace(
                sup.resolve(1.0, 3.0), weights=full
            )
        )
        assert any("down server" in v for v in violations)

    def test_disabled_watchdog_lets_bad_split_through(self, group):
        sup, solver, _, metrics = _make_supervisor(
            group, SupervisorConfig(watchdog=False)
        )

        def poison(result):
            rates = result.generic_rates.copy()
            rates[0] = math.nan
            return dataclasses.replace(result, generic_rates=rates)

        solver.tamper = poison
        out = sup.resolve(0.0, 3.0)
        assert out.source == "primary"
        assert metrics.counters.watchdog_violations == 0

    def test_clean_outcome_has_no_violations(self, group):
        sup, _, _, _ = _make_supervisor(group)
        out = sup.resolve(0.0, 3.0)
        assert sup.check_invariants(out) == []


class TestSupervisorDarkCluster:
    def test_all_down_sheds_everything(self, group):
        sup, _, health, metrics = _make_supervisor(group)
        sup.resolve(0.0, 3.0)
        for i in range(group.n):
            health.mark_down(i)
        out = sup.resolve(10.0, 3.0)
        assert out.source == "cluster-down"
        assert out.shed_fraction == 1.0
        assert np.all(out.weights == 0.0)
        assert metrics.counters.cluster_down_events == 1
        assert metrics.incidents.counts["cluster-down"] == 1

    def test_recovery_after_dark_cluster_resolves_fresh(self, group):
        sup, _, health, _ = _make_supervisor(group)
        sup.resolve(0.0, 3.0)
        for i in range(group.n):
            health.mark_down(i)
        sup.resolve(10.0, 3.0)
        health.mark_up(2)
        out = sup.resolve(20.0, 3.0)
        assert out.source == "primary"
        assert out.weights[2] == pytest.approx(1.0)
