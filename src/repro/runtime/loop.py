"""The online dispatcher and its closed-loop simulation harness.

:class:`LoadDistributionRuntime` is the estimator → controller → router
control loop assembled into one object that speaks the simulator's
dispatcher protocol:

* every generic arrival feeds the rate estimator (offered load, before
  shedding) and may trigger a re-solve (drift or periodic timer);
* every routing decision realizes the current optimal split through a
  weighted router, shedding first when the capacity plan says so;
* server up/down events shrink/restore the group and force an
  immediate re-solve;
* every completion feeds the response-time metrics.

:func:`run_closed_loop` drives the runtime against the discrete-event
engine with a time-varying arrival trace and a failure schedule — the
validation mode the ISSUE's acceptance tests run in: the achieved mean
generic response time must converge to the analytic optimum ``T'`` of
whatever (rate, topology) regime is in force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.exceptions import ParameterError
from ..core.response import Discipline
from ..core.result import LoadDistributionResult
from ..core.server import BladeServerGroup
from ..obs import ConfigBase, ObsConfig, ProfileReport, configure, get_obs
from ..recovery.checkpoint import RecoveryConfig, RecoveryManager
from ..sim.arrivals import ClientWorkload, Offer, TracedPoissonArrivals
from ..sim.engine import GroupSimulation, SimulationConfig, SimulationResult
from ..sim.rng import StreamFactory
from ..sim.task import SimTask, TaskClass
from ..workloads.traces import RateTrace
from .admission import AdmissionConfig, AdmissionController
from .controller import ResolveController
from .estimator import DriftDetector, EwmaRateEstimator, SlidingWindowRateEstimator
from .health import HealthTracker
from .metrics import RuntimeMetrics
from .policies import RoutingConfig, build_router, router_spec

__all__ = [
    "RuntimeConfig",
    "ResolveEvent",
    "LoadDistributionRuntime",
    "RuntimeHandle",
    "ClosedLoopResult",
    "run_closed_loop",
]


@dataclass(frozen=True, kw_only=True)
class RuntimeConfig(ConfigBase):
    """Tuning knobs of the online runtime (defaults are sane for sim scale).

    Keyword-only and frozen; round-trips through ``to_dict()`` /
    ``from_dict()`` like every config in the library.

    Attributes
    ----------
    discipline, method:
        Forwarded to the solver (see
        :func:`~repro.core.solvers.dispatch`).
    estimator:
        ``"ewma"`` (exponential kernel) or ``"window"`` (sliding count).
    time_constant:
        EWMA time constant / sliding-window length, in simulation time.
    drift_threshold:
        Relative rate change that triggers a re-solve.
    min_dwell:
        Minimum time between drift-triggered re-solves.
    resolve_period:
        Optional periodic re-solve interval (``inf`` disables).
    hysteresis:
        Minimum total-variation distance between routing-fraction
        vectors for a new split to replace the live one.
    rate_quantum:
        Solver-target quantization grid, as a fraction of capacity.
    cache_size:
        LRU capacity of the solved-split cache.
    utilization_cap:
        Degradation cap: admitted load never exceeds this fraction of
        the surviving capacity; the excess is shed.
    router:
        Legacy data-plane knob: the routing policy name, honored only
        when ``routing`` is ``None``.  Prefer ``routing``.
    routing:
        Full data-plane configuration (see
        :class:`repro.runtime.policies.RoutingConfig`): the policy name
        resolved against the router registry plus its knobs (e.g. the
        power-of-``d`` sample count).  ``None`` falls back to
        ``RoutingConfig(policy=self.router)``.
    admission:
        Optional priority admission control (see
        :class:`repro.runtime.admission.AdmissionConfig`): a token
        bucket seeded from the live capacity estimate plus a
        CoDel-style sojourn AQM, shedding lowest-priority-first, with a
        brownout state machine that degrades gracefully under sustained
        overload.  ``None`` (default) disables the layer entirely —
        the legacy probabilistic shed coin stays in charge and journals
        remain byte-compatible with prior releases.
    seed:
        Seed of the runtime's own randomness (alias sampling, shed
        coin) — independent of the simulator's streams.
    solver_tol:
        Optional solver tolerance override.
    supervise:
        Whether to wrap the controller in the resilience supervisor
        (fallback chain, circuit breaker, invariant watchdog, dark-
        cluster shed-all).  Off restores the PR 2 trust-everything
        behaviour: solver exceptions escape the loop.
    fallback_methods:
        Alternate solver backends of the supervisor's fallback chain,
        tried in order after the primary; the capacity-proportional
        heuristic is always the implicit last rung.
    solver_retries:
        Extra primary solver attempts per decision before falling
        through the chain.
    solver_backoff:
        Simulated time after a primary solver fault during which new
        decisions skip the primary entirely.
    breaker_threshold:
        Consecutive primary-failed decisions that open the circuit
        breaker (pinning the last-known-good split).
    breaker_cooldown:
        Simulated time the breaker stays open before a half-open probe.
    watchdog:
        Whether the supervisor checks (and repairs) split invariants
        before adoption.
    rho_cap:
        Watchdog bound on any active server's total utilization.
    time_tolerance:
        Backwards-timestamp jitter the rate estimators clamp instead of
        raising on (replayed/merged event streams carry small jitter).
    obs:
        Observability knob (see :class:`repro.obs.ObsConfig`).  When
        ``obs.enabled`` the runtime installs it as the global context
        at construction, so solver spans, controller cache counters,
        supervisor fallback metrics, and simulator event counters all
        record for the run.  Off by default: every instrumented site
        degrades to a no-op.
    recovery:
        Durability knob (see :class:`repro.recovery.RecoveryConfig`).
        When ``recovery.enabled`` the runtime write-ahead journals
        every decision and checkpoints its full state on a decision
        cadence, so :func:`repro.recovery.restore_runtime` can rebuild
        it deterministically after a crash.  Off by default: zero
        per-arrival cost.
    """

    discipline: Discipline | str = Discipline.FCFS
    method: str = "auto"
    estimator: str = "ewma"
    time_constant: float = 150.0
    drift_threshold: float = 0.1
    min_dwell: float = 25.0
    resolve_period: float = math.inf
    hysteresis: float = 0.01
    rate_quantum: float = 0.002
    cache_size: int = 64
    utilization_cap: float = 0.92
    router: str = "swrr"
    routing: RoutingConfig | None = None
    admission: AdmissionConfig | None = None
    seed: int = 0
    solver_tol: float | None = None
    supervise: bool = True
    fallback_methods: tuple[str, ...] = ("bisection",)
    solver_retries: int = 1
    solver_backoff: float = 30.0
    breaker_threshold: int = 3
    breaker_cooldown: float = 200.0
    watchdog: bool = True
    rho_cap: float = 0.995
    time_tolerance: float = 1e-6
    obs: ObsConfig = ObsConfig()
    recovery: RecoveryConfig = RecoveryConfig()

    def routing_config(self) -> RoutingConfig:
        """The effective data-plane config (legacy ``router`` when unset)."""
        if self.routing is not None:
            return self.routing
        return RoutingConfig(policy=self.router)


@dataclass(frozen=True)
class ResolveEvent:
    """One controller decision, for post-run inspection."""

    time: float
    reason: str
    offered_rate: float
    solved_rate: float
    shed_fraction: float
    cache_hit: bool
    adopted: bool
    #: Provenance of the adopted split: ``"primary"``, a
    #: ``"fallback:*"`` rung, ``"circuit-pinned"``, or
    #: ``"cluster-down"`` (always ``"primary"`` when unsupervised).
    source: str = "primary"
    #: Fallback-chain depth the decision reached (0 = primary).
    depth: int = 0


class LoadDistributionRuntime:
    """Online dispatcher: estimate, re-solve on drift, route, degrade.

    Implements the simulator's dispatcher protocol (:meth:`route`) plus
    the engine's arrival/completion listener hooks, so one instance
    plugs straight into :class:`~repro.sim.engine.GroupSimulation`.

    Parameters
    ----------
    group:
        The full blade-server group.
    initial_rate:
        Design-time estimate of ``lambda'``; the runtime solves its
        first split from it and seeds the rate estimator's prior.
    config:
        Tuning knobs; see :class:`RuntimeConfig`.
    fault_plan:
        Optional fault-injection plan (see
        :class:`repro.faults.injectors.FaultPlan`): its solver wrapper
        is installed into the controller, its estimator wrapper around
        the rate estimator, and its clock is bound to this runtime.
        Production deployments leave it ``None``.
    """

    def __init__(
        self,
        group: BladeServerGroup,
        initial_rate: float,
        config: RuntimeConfig = RuntimeConfig(),
        fault_plan=None,
        _restore: bool = False,
    ) -> None:
        self.config = config
        self._now = 0.0
        self._fault_plan = fault_plan
        self._recovery: RecoveryManager | None = None
        if config.obs.enabled:
            configure(config.obs)
        # Cached once: route() runs on every arrival, and the global
        # lookup is the only per-call cost when observability is off.
        self._obs = get_obs()
        if fault_plan is not None:
            fault_plan.bind_clock(lambda: self._now)
        self.health = HealthTracker(group, utilization_cap=config.utilization_cap)
        solver_kwargs = {}
        if config.solver_tol is not None:
            solver_kwargs["tol"] = config.solver_tol
        solve_fn = None
        if fault_plan is not None:
            from ..core.solvers import dispatch

            solve_fn = fault_plan.wrap_solver(dispatch)
        self.controller = ResolveController(
            self.health,
            discipline=config.discipline,
            method=config.method,
            rate_quantum=config.rate_quantum,
            cache_size=config.cache_size,
            hysteresis=config.hysteresis,
            solve_fn=solve_fn,
            **solver_kwargs,
        )
        if config.estimator == "ewma":
            self.estimator = EwmaRateEstimator(
                config.time_constant,
                initial_rate=initial_rate,
                time_tolerance=config.time_tolerance,
            )
        elif config.estimator == "window":
            self.estimator = SlidingWindowRateEstimator(
                config.time_constant,
                initial_rate=initial_rate,
                time_tolerance=config.time_tolerance,
            )
        else:
            raise ParameterError(
                f"unknown estimator {config.estimator!r}; use 'ewma' or 'window'"
            )
        if fault_plan is not None:
            self.estimator = fault_plan.wrap_estimator(self.estimator)
        self.drift = DriftDetector(
            threshold=config.drift_threshold, min_dwell=config.min_dwell
        )
        self.metrics = RuntimeMetrics.for_group_size(group.n)
        self.supervisor = None
        if config.supervise:
            # Imported lazily: repro.faults itself imports runtime
            # modules, and a module-level import here would cycle.
            from ..faults.supervisor import ResilienceSupervisor, SupervisorConfig

            self.supervisor = ResilienceSupervisor(
                self.controller,
                self.health,
                self.metrics,
                SupervisorConfig(
                    fallback_methods=tuple(config.fallback_methods),
                    retries=config.solver_retries,
                    backoff=config.solver_backoff,
                    breaker_threshold=config.breaker_threshold,
                    breaker_cooldown=config.breaker_cooldown,
                    rho_cap=config.rho_cap,
                    watchdog=config.watchdog,
                ),
            )
        self.resolve_log: list[ResolveEvent] = []
        streams = StreamFactory(config.seed)
        self._shed_rng = streams.stream("shed")
        self._router_rng = streams.stream("router")
        self._last_resolve = -math.inf
        self._shed_fraction = 0.0
        self._weights: np.ndarray | None = None
        self._result: LoadDistributionResult | None = None
        self._router = None
        self._routing = config.routing_config()
        # Resolving the spec here validates the policy name up front
        # (before any traffic) and fixes whether completion events must
        # be journaled for deterministic queue-state replay.
        self._state_aware = router_spec(self._routing.policy).state_aware
        # Per-server generic tasks in flight: incremented by _route(),
        # decremented by observe_completion().  Maintained for every
        # policy (O(1) either way) so swapping to a state-aware one is
        # purely a config change.
        self._inflight: list[int] = [0] * group.n
        # Priority admission control (default off).  Fully deterministic
        # — it consumes no RNG — so journal replay of (class, attempt)
        # stamped route records reconstructs identical decisions.
        self._admission: AdmissionController | None = None
        if config.admission is not None:
            self._admission = AdmissionController(config.admission)
        if not _restore:
            # A restore skips the initial resolve — the checkpoint codec
            # loads the persisted state instead — and attaches its own
            # journal-resuming manager afterwards.
            self._resolve(0.0, initial_rate, reason="initial", force=True)
            if config.recovery.enabled:
                # The bootstrap checkpoint covers the initial resolve,
                # so replay never has to reconstruct pre-journal history.
                self._attach_recovery(RecoveryManager.create(self, config.recovery))

    def _attach_recovery(self, manager: RecoveryManager) -> None:
        """Start journaling through ``manager`` (construction or restore)."""
        self._recovery = manager
        if self.supervisor is not None:
            self.supervisor.transition_listener = manager.record_breaker

    # -- state views ------------------------------------------------------------------

    @property
    def current_result(self) -> LoadDistributionResult:
        """The live split's solver result (active-subgroup space)."""
        return self._result

    @property
    def current_weights(self) -> np.ndarray:
        """The live full-group routing fractions (down servers at 0)."""
        return self._weights.copy()

    @property
    def shed_fraction(self) -> float:
        """Fraction of arrivals currently being shed."""
        return self._shed_fraction

    # -- control ----------------------------------------------------------------------

    def _resolve(
        self, now: float, offered_rate: float, reason: str, force: bool
    ) -> None:
        if self.supervisor is not None:
            sup = self.supervisor.resolve(now, offered_rate)
            weights, result = sup.weights, sup.result
            shed, solved_rate = sup.shed_fraction, sup.solved_rate
            cache_hit, solver_ran = sup.cache_hit, sup.solver_ran
            latency, source, depth = sup.latency, sup.source, sup.depth
        else:
            outcome = self.controller.resolve(offered_rate)
            weights, result = outcome.weights, outcome.result
            shed, solved_rate = outcome.plan.shed_fraction, outcome.solved_rate
            cache_hit, solver_ran = outcome.cache_hit, not outcome.cache_hit
            latency, source, depth = outcome.latency, "primary", 0
        shed_all = shed >= 1.0
        adopt = force or shed_all or self.controller.should_adopt(self._weights, weights)
        if adopt:
            previous_shed = self._shed_fraction
            self._weights = weights
            self._result = result
            self._shed_fraction = shed
            if not shed_all:
                # An all-zero weight vector has no router representation
                # (and in shed-all mode the shed coin in route() already
                # drops every arrival before the router is consulted).
                if self._router is None:
                    self._router = build_router(
                        self._routing, self._weights, self._router_rng
                    )
                else:
                    self._router.set_weights(self._weights)
            self.metrics.counters.adoptions += 1
            self.metrics.shed.update(now, shed)
            if shed > 0.0 and previous_shed == 0.0:
                self.metrics.incidents.note(
                    now,
                    "shed-start",
                    "warning",
                    f"admission control engaged: shedding {shed:.4g} of offered load",
                    fraction=shed,
                    reason=reason,
                )
            elif shed == 0.0 and previous_shed > 0.0:
                self.metrics.incidents.note(
                    now,
                    "shed-stop",
                    "info",
                    "admission control disengaged: full load admitted",
                    reason=reason,
                )
        else:
            self.metrics.counters.hysteresis_skips += 1
        if cache_hit:
            self.metrics.counters.cache_hits += 1
        elif solver_ran:
            self.metrics.counters.resolves += 1
            self.metrics.resolve_latency.add(latency)
        if self._admission is not None:
            # Re-seed the token bucket from the KKT capacity estimate of
            # the *surviving* subgroup, capped like the shed planner —
            # a dead cluster seeds 0.0, which is the graceful shed-all
            # path (no ClusterDownError reaches the dispatcher).
            if self.health.all_down:
                self._admission.reseed(now, 0.0)
            else:
                capacity = self.health.active_group().max_generic_rate
                self._admission.reseed(
                    now, self.config.utilization_cap * capacity
                )
            self._drain_brownout(now)
        # Re-anchor drift detection at the rate we just planned for,
        # whether or not the split itself changed: the decision was
        # made, so small residual deviation is no longer "drift".
        self.drift.rearm(now, offered_rate)
        self._last_resolve = now
        event = ResolveEvent(
            time=now,
            reason=reason,
            offered_rate=offered_rate,
            solved_rate=solved_rate,
            shed_fraction=shed,
            cache_hit=cache_hit,
            adopted=adopt,
            source=source,
            depth=depth,
        )
        self.resolve_log.append(event)
        if self._recovery is not None:
            self._recovery.record_resolve(now, event)

    def server_down(self, index: int, now: float) -> None:
        """Handle a server failure: drain routing, re-solve immediately."""
        self._now = now
        if self._recovery is not None:
            # Write-ahead: the signal is journaled before it is acted
            # on, so replay re-delivers it to the restored state.
            self._recovery.record_health(now, index, "down")
        if self.health.mark_down(index):
            self.metrics.counters.failures += 1
            self._resolve(now, self.offered_estimate(now), reason="failure", force=True)
        if self._recovery is not None:
            self._recovery.safe_point()

    def server_up(self, index: int, now: float) -> None:
        """Handle a server recovery: restore capacity, re-solve."""
        self._now = now
        if self._recovery is not None:
            self._recovery.record_health(now, index, "up")
        if self.health.mark_up(index):
            self.metrics.counters.recoveries += 1
            self._resolve(now, self.offered_estimate(now), reason="recovery", force=True)
        if self._recovery is not None:
            self._recovery.safe_point()

    def offered_estimate(self, now: float) -> float:
        """The estimator's current offered-rate reading, floored positive.

        A dead estimate (cold start, long silence) must not reach the
        planner, which requires a positive rate.  Public: external
        aggregators (e.g. the sharded dispatcher summing per-shard
        offered rates) read it through here rather than reaching into
        the estimator.
        """
        est = self.estimator.estimate(now)
        return est if est > 0.0 else 1e-12

    # -- engine-facing hooks -------------------------------------------------------------

    def observe_arrival(self, now: float) -> None:
        """Arrival listener: feed the estimator, run the trigger logic."""
        self._now = now
        self.metrics.counters.arrivals += 1
        self.estimator.observe(now)
        estimate = self.estimator.estimate(now)
        if now - self._last_resolve >= self.config.resolve_period:
            self.metrics.counters.periodic_triggers += 1
            self._resolve(now, estimate, reason="periodic", force=False)
        elif self.drift.check(now, estimate):
            self.metrics.counters.drift_triggers += 1
            self._resolve(now, estimate, reason="drift", force=False)

    def route(self, servers=None) -> int:
        """Dispatcher protocol: shed or pick a destination server."""
        o = self._obs
        if not o.enabled:
            return self._route()
        with o.tracer.span("route") as sp:
            dest = self._route()
            sp.note(dest=dest)
        o.registry.counter(
            "repro_routes_total",
            "Routing decisions by outcome",
            labels=("outcome",),
        ).labels(outcome="shed" if dest < 0 else "routed").inc()
        return dest

    def route_offer(self, offer: Offer) -> int:
        """Offer-aware dispatcher protocol: admission, then routing.

        The engine prefers this entry point when the run has a
        :class:`~repro.sim.arrivals.ClientWorkload`; the offer carries
        the priority class and retry attempt the admission controller
        (and the journal) decide on.
        """
        o = self._obs
        if not o.enabled:
            return self._route(offer)
        with o.tracer.span("route") as sp:
            dest = self._route(offer)
            sp.note(dest=dest, cls=offer.cls, attempt=offer.attempt)
        o.registry.counter(
            "repro_routes_total",
            "Routing decisions by outcome",
            labels=("outcome",),
        ).labels(outcome="shed" if dest < 0 else "routed").inc()
        return dest

    def _route(self, offer: Offer | None = None) -> int:
        if self._admission is not None:
            cls = 0 if offer is None else offer.cls
            attempt = 0 if offer is None else offer.attempt
            if self._router is None or self._shed_fraction >= 1.0:
                # Dark cluster: no router exists to pick from.  The
                # controller ledgers the rejection so replay matches.
                admitted, reason = False, "shed-all"
                self._admission.note_forced_shed(cls)
            else:
                # Admission replaces the probabilistic shed coin
                # entirely (no RNG is consumed — decisions must replay
                # bit-exactly from the journal after a crash).
                admitted, reason = self._admission.decide(self._now, cls, attempt)
            if admitted:
                dest = self._router.pick(self._inflight)
                self._inflight[dest] += 1
                self.metrics.counters.routed += 1
                self.metrics.routed.record(dest)
            else:
                self.metrics.counters.shed += 1
                dest = -1
            self._note_admission(self._now, cls, admitted, reason)
            if self._recovery is not None:
                self._recovery.record_route(
                    self._now, dest, cls=cls, attempt=attempt
                )
            return dest
        if self._shed_fraction > 0.0 and self._shed_rng.random() < self._shed_fraction:
            self.metrics.counters.shed += 1
            dest = -1
        else:
            dest = self._router.pick(self._inflight)
            self._inflight[dest] += 1
            self.metrics.counters.routed += 1
            self.metrics.routed.record(dest)
        if self._recovery is not None:
            self._recovery.record_route(self._now, dest)
        return dest

    def _note_admission(
        self, now: float, cls: int, admitted: bool, reason: str
    ) -> None:
        """Record one admission decision in the metrics + obs layers."""
        decision = "admit" if admitted else reason
        self.metrics.admission.record(decision, cls)
        o = self._obs
        if o.enabled:
            o.registry.counter(
                "repro_admission_decisions",
                "Admission decisions by outcome and priority class",
                labels=("decision", "cls"),
            ).labels(decision=decision, cls=str(cls)).inc()
        self._drain_brownout(now)

    def _drain_brownout(self, now: float) -> None:
        """Convert pending brownout transitions into incident records."""
        for t, previous, state in self._admission.drain_transitions():
            self.metrics.admission.transition(state)
            self.metrics.incidents.note(
                t,
                "brownout-transition",
                "info" if state == "normal" else "warning",
                f"admission brownout state {previous} -> {state}",
                **{"from": previous, "to": state},
            )

    def observe_completion(
        self, task: SimTask, now: float, server_index: int | None = None
    ) -> None:
        """Completion listener: queue state down, response time recorded.

        ``server_index`` lets a wrapping dispatcher re-map the task's
        global server index into this runtime's local index space (the
        sharded dispatcher owns the global→local mapping); ``None``
        means the task's own index is already local.
        """
        if task.task_class is TaskClass.GENERIC:
            index = task.server_index if server_index is None else server_index
            if self._recovery is not None and (
                self._state_aware or self._admission is not None
            ):
                # Write-ahead only when the pick sequence depends on
                # completions: state-aware policies track queue depths,
                # and the admission AQM tracks sojourn times.  A replay
                # must re-apply completions in journal order.  Static
                # policies without admission stay byte-compatible w/ PR 5.
                if self._admission is not None:
                    self._recovery.record_completion(
                        now, index, rt=task.response_time
                    )
                else:
                    self._recovery.record_completion(now, index)
            self._apply_completion(index)
            if self._admission is not None:
                self._observe_sojourn(now, task.response_time)
            self.metrics.on_response(task.response_time)

    def _observe_sojourn(self, now: float, rt: float) -> None:
        """Feed one completed sojourn into the admission AQM (live + replay)."""
        self._admission.observe_sojourn(now, rt)
        self._drain_brownout(now)

    def _apply_completion(self, index: int) -> None:
        """Decrement in-flight state and notify the policy (live + replay)."""
        count = self._inflight[index]
        if count > 0:
            # Clamped: a restore mid-run can observe completions of
            # tasks routed before the journal epoch began.
            self._inflight[index] = count - 1
        if self._router is not None:
            self._router.on_completion(index)


class RuntimeHandle:
    """Mutable indirection to the live runtime across crash-swaps.

    Scheduled control closures (failure schedules, fault-plan health
    events) are compiled once, before the run starts, but a crash fault
    replaces the runtime object mid-run.  Routing those closures through
    a handle means they always reach the *current* control plane; the
    handle also collects the :class:`~repro.recovery.resume.RestoreReport`
    of every recovery performed during the run.
    """

    def __init__(self, runtime: LoadDistributionRuntime) -> None:
        self.current = runtime
        self.restores: list = []

    def server_down(self, index: int, now: float) -> None:
        self.current.server_down(index, now)

    def server_up(self, index: int, now: float) -> None:
        self.current.server_up(index, now)


@dataclass(frozen=True)
class ClosedLoopResult:
    """Output of one closed-loop run: simulation + runtime telemetry."""

    #: Post-warmup simulation statistics (task log included when
    #: ``collect_tasks`` was set — the convergence report needs it).
    sim: SimulationResult
    #: The runtime instance, with final health/metrics/cache state.
    runtime: LoadDistributionRuntime
    #: The arrival trace the run was driven with.
    trace: RateTrace
    #: The failure schedule applied, as ``(time, server, kind)``.
    failures: tuple = field(default=())
    #: The cProfile report of the simulation loop, when the run was
    #: executed with ``ObsConfig(profile=True)``; ``None`` otherwise.
    profile: ProfileReport | None = None
    #: One :class:`~repro.recovery.resume.RestoreReport` per crash
    #: recovery performed during the run (empty without crash faults).
    restores: tuple = field(default=())

    @property
    def metrics(self) -> RuntimeMetrics:
        """Shortcut to the runtime's metric set."""
        return self.runtime.metrics


def run_closed_loop(
    group: BladeServerGroup,
    trace: RateTrace,
    config: RuntimeConfig = RuntimeConfig(),
    *,
    horizon: float,
    warmup: float = 0.0,
    seed: int | None = 0,
    failures: Sequence[tuple[float, int, str]] = (),
    fault_plan=None,
    collect_tasks: bool = True,
    workload: ClientWorkload | None = None,
) -> ClosedLoopResult:
    """Drive the online runtime with simulated traffic, closed loop.

    Parameters
    ----------
    group:
        The blade-server group.
    trace:
        Time-varying total generic rate ``lambda'(t)``.
    config:
        Runtime tuning; the runtime's initial split is solved at
        ``trace.initial_rate``.
    horizon, warmup, seed:
        Simulation run parameters (see
        :class:`~repro.sim.engine.SimulationConfig`).
    failures:
        Schedule of health events ``(time, server_index, kind)`` with
        ``kind`` in ``{"down", "up"}``.
    fault_plan:
        Optional :class:`~repro.faults.injectors.FaultPlan`: its solver
        and estimator injectors are installed into the runtime and its
        health-plane faults compiled into engine control events
        (recorded in ``fault_plan.health_timeline``).
    collect_tasks:
        Retain completed tasks for phase-segmented convergence analysis
        (see :func:`repro.analysis.convergence.phase_reports`).
    workload:
        Optional :class:`~repro.sim.arrivals.ClientWorkload` describing
        priority-class shares and the client retry policy.  With a
        workload the engine stamps every arrival with an admission
        offer, re-offers timed-out or rejected tasks after backoff, and
        the runtime's admission controller (``config.admission``) gets
        real classes to prioritize.
    """
    runtime = LoadDistributionRuntime(
        group, trace.initial_rate, config, fault_plan=fault_plan
    )
    handle = RuntimeHandle(runtime)
    controls = []
    for t, index, kind in failures:
        if kind == "down":
            controls.append((t, _down_action(handle, index)))
        elif kind == "up":
            controls.append((t, _up_action(handle, index)))
        else:
            raise ParameterError(f"failure kind must be 'down' or 'up', got {kind!r}")
    if fault_plan is not None:
        controls.extend(fault_plan.health_controls(handle, horizon))
        crash_specs = fault_plan.crash_specs
        if crash_specs and not config.recovery.enabled:
            raise ParameterError(
                "crash faults require RuntimeConfig.recovery.enabled "
                "(there is nothing to restore from otherwise)"
            )
        for spec in crash_specs:
            controls.append(
                (spec.start, _crash_action(handle, group, config, trace, fault_plan))
            )
        for spec in fault_plan.overload_specs:
            if spec.kind == "retry-storm":
                # Clients panic: backoff delays collapse by the given
                # scale for the fault window, then restore.
                scale = float(spec.params.get("backoff_scale", 0.1))
                controls.append((spec.start, _backoff_action(scale)))
                controls.append((spec.end, _backoff_action(1.0)))
            # "burst-overload" is a no-op here: the arrival-rate burst
            # must be encoded in ``trace`` (see RateTrace.burst) —
            # run_overload_chaos compiles the spec into the trace before
            # calling this function.
    sim_config = SimulationConfig(
        total_generic_rate=trace.initial_rate,
        fractions=tuple(runtime.current_weights),
        discipline=Discipline.coerce(config.discipline),
        horizon=horizon,
        warmup=warmup,
        seed=seed,
    )
    sim = GroupSimulation(
        group,
        sim_config,
        dispatcher=runtime,
        arrivals=TracedPoissonArrivals(trace),
        arrival_listener=runtime.observe_arrival,
        completion_listener=runtime.observe_completion,
        controls=controls,
        collect_tasks=collect_tasks,
        workload=workload,
    )
    with runtime._obs.profile() as prof:
        result = sim.run()
    final = handle.current
    if final._recovery is not None:
        final._recovery.finalize()
    return ClosedLoopResult(
        sim=result,
        runtime=final,
        trace=trace,
        failures=tuple(failures),
        profile=prof if prof.enabled else None,
        restores=tuple(handle.restores),
    )


def _down_action(handle: RuntimeHandle, index: int):
    def action(sim, now: float) -> None:
        handle.server_down(index, now)

    return action


def _up_action(handle: RuntimeHandle, index: int):
    def action(sim, now: float) -> None:
        handle.server_up(index, now)

    return action


def _backoff_action(scale: float):
    """Control action scaling client retry-backoff delays (retry-storm)."""

    def action(sim, now: float) -> None:
        sim.set_backoff_scale(scale)

    return action


def _crash_action(handle: RuntimeHandle, group, config, trace, fault_plan):
    """Control action realizing a ``crash`` fault: hard-kill the control
    plane, rebuild it from disk, splice it into the running engine.

    The data plane survives (queues, in-flight tasks, every engine RNG
    stream); only the dispatcher object dies.  ``abandon()`` models the
    kill faithfully — the journal is left exactly as the flushed appends
    put it, with no farewell checkpoint.
    """

    def action(sim, now: float) -> None:
        from ..recovery.resume import restore_runtime

        crashed = handle.current
        if crashed._recovery is not None:
            crashed._recovery.abandon()
        runtime, report = restore_runtime(
            group, config, initial_rate=trace.initial_rate, fault_plan=fault_plan
        )
        sim.swap_dispatcher(
            runtime,
            arrival_listener=runtime.observe_arrival,
            completion_listener=runtime.observe_completion,
        )
        handle.current = runtime
        handle.restores.append(report)

    return action
