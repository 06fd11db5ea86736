"""Resilience supervisor: the control plane's trust boundary.

The PR 2 runtime assumed every component works: the solver converges,
the estimate is sane, health signals are instant.  The supervisor wraps
:class:`~repro.runtime.controller.ResolveController` with the machinery
a production control loop needs when those assumptions break:

* **Fallback chain** — the configured backend first, then each
  alternate backend (scalar bisection by default), then a solver-free
  capacity-proportional heuristic split.  Primary attempts are bounded
  (``retries``) and, after a fault, suppressed for ``backoff``
  simulated-time units so a broken solver is not hammered on every
  arrival.
* **Circuit breaker** — after ``breaker_threshold`` consecutive
  decisions with a failing primary, the breaker opens: no solver is
  attempted, the last-known-good split stays pinned (with staleness
  accounting) until ``breaker_cooldown`` elapses, then one half-open
  probe decides between closing and re-opening.  A health-fingerprint
  change while pinned invalidates the pin — the supervisor rebuilds a
  safe proportional split for the new topology instead of routing to a
  dead server.  Retries, backoff and breaker are one :class:`Breaker`,
  the state machine the fleet's
  :class:`~repro.shard.supervisor.ShardSupervisor` also uses.
* **Invariant watchdog** — every outcome is checked before it can
  reach the router: weights normalized, exactly zero on down servers,
  every active server's total utilization under the ρ-cap.  A
  violation emits a critical incident and is *repaired* (the safe
  proportional split is substituted), so a buggy or hostile solver
  cannot push an unsafe split to the data plane.
* **Dark-cluster path** — when every server is down the supervisor
  returns a shed-all outcome (routing weight nowhere, shed fraction 1)
  instead of letting :class:`~repro.core.exceptions.ClusterDownError`
  escape the control loop.

Every deviation lands as a structured
:class:`~repro.runtime.metrics.IncidentRecord` in the runtime's metric
set, so a chaos run is fully reconstructible from telemetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.exceptions import ClusterDownError, ParameterError
from ..core.result import LoadDistributionResult
from ..core.server import BladeServerGroup
from ..obs import ConfigBase, get_obs
from ..runtime.controller import ResolveController, ResolveOutcome
from ..runtime.health import HealthTracker
from ..runtime.metrics import RuntimeMetrics


__all__ = [
    "Breaker",
    "SupervisorConfig",
    "SupervisedOutcome",
    "proportional_split",
    "ResilienceSupervisor",
]


def _deep_tuple(value):
    """Recursively convert lists back into tuples (JSON inverse)."""
    if isinstance(value, (list, tuple)):
        return tuple(_deep_tuple(v) for v in value)
    return value


class Breaker:
    """Retry budget, backoff window and circuit breaker of one supervisor.

    The one state machine behind both :class:`ResilienceSupervisor` and
    :class:`~repro.shard.supervisor.ShardSupervisor`.  ``config`` is any
    config carrying the four shared knobs (``retries``, ``backoff``,
    ``breaker_threshold``, ``breaker_cooldown``).  Each decision asks
    :meth:`admit` once, makes up to :meth:`attempts` primary attempts,
    and reports the outcome with :meth:`succeed` or :meth:`fail`.  What a
    caller does outside the primary (fallback chain, degraded shares),
    and which transitions it counts, stays with the caller.
    """

    __slots__ = ("config", "_consecutive", "_blocked_until", "_open_until")

    def __init__(self, config) -> None:
        self.config = config
        self._consecutive = 0
        self._blocked_until = -math.inf
        self._open_until: float | None = None  # not None = breaker open

    @staticmethod
    def check_config(config) -> None:
        """Validate the four breaker knobs of ``config``."""
        if config.retries < 0:
            raise ParameterError(f"retries must be >= 0, got {config.retries}")
        if not (math.isfinite(config.backoff) and config.backoff >= 0.0):
            raise ParameterError(
                f"backoff must be finite and >= 0, got {config.backoff!r}"
            )
        if config.breaker_threshold < 1:
            raise ParameterError(
                f"breaker_threshold must be >= 1, got {config.breaker_threshold}"
            )
        if not (
            math.isfinite(config.breaker_cooldown) and config.breaker_cooldown > 0.0
        ):
            raise ParameterError(
                "breaker_cooldown must be finite and > 0, "
                f"got {config.breaker_cooldown!r}"
            )

    @property
    def is_open(self) -> bool:
        """Whether the breaker is open (cooling down or awaiting a probe)."""
        return self._open_until is not None

    @property
    def open_until(self) -> float | None:
        """End of the current cooldown (``None`` when closed)."""
        return self._open_until

    @property
    def consecutive_failures(self) -> int:
        """Decisions in a row whose primary attempts all failed."""
        return self._consecutive

    def admit(self, now: float) -> str:
        """How the decision at ``now`` may use the primary.

        ``"open"``: cooling down, no attempt.  ``"probe"``: the cooldown
        has elapsed, one half-open attempt.  ``"blocked"``: closed but
        inside the backoff window, no attempt.  ``"closed"``: normal.
        """
        if self._open_until is not None:
            return "open" if now < self._open_until else "probe"
        return "blocked" if now < self._blocked_until else "closed"

    def attempts(self, state: str) -> int:
        """Primary attempts allowed in ``state`` (a probe gets one)."""
        return 1 if state == "probe" else 1 + self.config.retries

    def succeed(self) -> bool:
        """Record a primary success; returns whether it closed the breaker."""
        was_open = self._open_until is not None
        self._consecutive = 0
        self._blocked_until = -math.inf
        self._open_until = None
        return was_open

    def fail(self, now: float) -> str | None:
        """Record a decision whose primary attempts all failed.

        Starts the backoff window.  Returns ``"reopened"`` when a
        half-open probe failed, ``"opened"`` when this failure reached
        the threshold of a closed breaker, and ``None`` otherwise.
        """
        self._consecutive += 1
        self._blocked_until = now + self.config.backoff
        if self._open_until is not None:
            self._open_until = now + self.config.breaker_cooldown
            return "reopened"
        if self._consecutive >= self.config.breaker_threshold:
            self._open_until = now + self.config.breaker_cooldown
            return "opened"
        return None

    def state_dict(self) -> dict:
        """JSON-safe snapshot (keys as in the resilience checkpoint)."""
        return {
            "consecutive_primary_failures": self._consecutive,
            "primary_blocked_until": self._blocked_until,
            "open_until": self._open_until,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, deadlines included."""
        self._consecutive = int(state["consecutive_primary_failures"])
        self._blocked_until = float(state["primary_blocked_until"])
        until = state["open_until"]
        self._open_until = None if until is None else float(until)


@dataclass(frozen=True, kw_only=True)
class SupervisorConfig(ConfigBase):
    """Tuning knobs of the resilience supervisor.

    Keyword-only and frozen; round-trips through ``to_dict()`` /
    ``from_dict()`` like every config in the library.

    Attributes
    ----------
    fallback_methods:
        Alternate solver backends tried, in order, when the primary
        fails.  The capacity-proportional heuristic is always the
        implicit last rung and needs no solver.
    retries:
        Extra primary attempts per decision before falling through
        (``1`` = try the primary at most twice per decision).
    backoff:
        Simulated time after a primary fault during which new decisions
        skip the primary entirely and go straight to the fallbacks.
    breaker_threshold:
        Consecutive primary-failed decisions that open the circuit.
    breaker_cooldown:
        Simulated time the circuit stays open (split pinned) before a
        half-open probe is allowed.
    rho_cap:
        Watchdog bound on every active server's total utilization
        (strictly below 1; the queue diverges at 1).
    watchdog:
        Whether outcome invariants are checked (and repaired) at all.
    """

    fallback_methods: tuple[str, ...] = ("bisection",)
    retries: int = 1
    backoff: float = 30.0
    breaker_threshold: int = 3
    breaker_cooldown: float = 200.0
    rho_cap: float = 0.995
    watchdog: bool = True

    def __post_init__(self) -> None:
        Breaker.check_config(self)
        if not (0.0 < self.rho_cap < 1.0):
            raise ParameterError(f"rho_cap must be in (0, 1), got {self.rho_cap!r}")


@dataclass(frozen=True)
class SupervisedOutcome:
    """One supervised controller decision, with provenance.

    Attributes
    ----------
    weights:
        Full-group routing weights (all zeros in shed-all mode).
    result:
        The solver/heuristic result in active-subgroup space (``None``
        in shed-all mode).
    shed_fraction:
        Fraction of arrivals to drop (1.0 when the cluster is dark).
    solved_rate:
        The rate the split was produced for.
    source:
        Provenance label: ``"primary"``, ``"fallback:<method>"``,
        ``"fallback:proportional"``, ``"circuit-pinned"``, or
        ``"cluster-down"``.
    depth:
        Rung index in the fallback chain (0 = primary; the pinned and
        shed-all outcomes sit past the last solver rung).
    cache_hit:
        Whether the split came from the controller's LRU cache.
    solver_ran:
        Whether a solver backend actually executed for this decision.
    latency:
        Wall-clock solver seconds (0 unless ``solver_ran``).
    stale_for:
        Simulated-time age of a pinned split (0 for fresh outcomes).
    failures:
        Messages of the solver faults swallowed along the way.
    """

    weights: np.ndarray
    result: LoadDistributionResult | None
    shed_fraction: float
    solved_rate: float
    source: str
    depth: int
    cache_hit: bool = False
    solver_ran: bool = False
    latency: float = 0.0
    stale_for: float = 0.0
    failures: tuple[str, ...] = ()


def proportional_split(
    group: BladeServerGroup, admitted_rate: float, discipline
) -> LoadDistributionResult:
    """Solver-free heuristic split: load proportional to spare capacity.

    Each server receives generic load in proportion to its saturation
    headroom ``m_i s_i / rbar - lambda''_i`` (speed-proportional,
    corrected for blades and preloaded special work).  Any admitted
    rate below the group's saturation point stays strictly below every
    server's saturation point, so the heuristic cannot produce an
    unstable split — the property that makes it a safe last rung.  It
    is *not* optimal; ``phi`` is ``nan`` to mark that no stationarity
    condition was solved.
    """
    spare = group.spare_capacities
    rates = admitted_rate * spare / spare.sum()
    return LoadDistributionResult(
        generic_rates=rates,
        mean_response_time=group.mean_response_time(rates, discipline),
        phi=math.nan,
        discipline=discipline,
        method="proportional",
        utilizations=group.utilizations(rates),
        per_server_response_times=group.per_server_response_times(rates, discipline),
        converged=True,
        metadata={"heuristic": True},
    )


@dataclass
class _PinnedSplit:
    """Last-known-good split the breaker serves while open."""

    weights: np.ndarray
    result: LoadDistributionResult | None
    shed_fraction: float
    solved_rate: float
    fingerprint: tuple
    pinned_at: float = 0.0


class ResilienceSupervisor:
    """Wraps a :class:`ResolveController` with the resilience policies.

    Parameters
    ----------
    controller, health, metrics:
        The runtime's controller, health tracker, and metric set.  The
        supervisor records every counter/incident into ``metrics`` and
        keeps ``metrics.circuit_state`` current.
    config:
        Policy knobs; see :class:`SupervisorConfig`.
    """

    def __init__(
        self,
        controller: ResolveController,
        health: HealthTracker,
        metrics: RuntimeMetrics,
        config: SupervisorConfig = SupervisorConfig(),
    ) -> None:
        self.controller = controller
        self.health = health
        self.metrics = metrics
        self.config = config
        self._breaker = Breaker(config)
        self._last_good: _PinnedSplit | None = None
        self.metrics.circuit_state = "closed"
        #: Optional callback ``(now, to_state)`` invoked at every breaker
        #: transition (open / closed / half-open).  The recovery layer
        #: hooks this to journal transitions in the write-ahead log.
        self.transition_listener = None

    def _transition(self, now: float, to: str) -> None:
        """Enter breaker state ``to``: gauge, obs counter, listener."""
        self.metrics.circuit_state = to
        o = get_obs()
        if o.enabled:
            o.registry.counter(
                "repro_breaker_transitions_total",
                "Circuit-breaker state transitions",
                labels=("to",),
            ).labels(to=to).inc()
        if self.transition_listener is not None:
            self.transition_listener(now, to)

    # -- outcome builders --------------------------------------------------------------

    def _shed_all(self, now: float, offered_rate: float) -> SupervisedOutcome:
        self.metrics.counters.cluster_down_events += 1
        self.metrics.fallback_depth.record("cluster-down", self._chain_length() + 1)
        self.metrics.incidents.note(
            now,
            "cluster-down",
            "critical",
            "every server is down; shedding 100% of generic load",
            offered_rate=offered_rate,
        )
        return SupervisedOutcome(
            weights=np.zeros(self.health.group.n),
            result=None,
            shed_fraction=1.0,
            solved_rate=0.0,
            source="cluster-down",
            depth=self._chain_length() + 1,
        )

    def _proportional(
        self, now: float, offered_rate: float, failures: list[str]
    ) -> SupervisedOutcome:
        plan = self.health.plan(offered_rate)
        group = self.health.active_group()
        result = proportional_split(group, plan.admitted_rate, self.controller.discipline)
        return SupervisedOutcome(
            weights=self.health.expand(result.fractions),
            result=result,
            shed_fraction=plan.shed_fraction,
            solved_rate=plan.admitted_rate,
            source="fallback:proportional",
            depth=self._chain_length(),
            failures=tuple(failures),
        )

    def _from_controller(
        self,
        outcome: ResolveOutcome,
        source: str,
        depth: int,
        failures: list[str],
    ) -> SupervisedOutcome:
        return SupervisedOutcome(
            weights=outcome.weights,
            result=outcome.result,
            shed_fraction=outcome.plan.shed_fraction,
            solved_rate=outcome.solved_rate,
            source=source,
            depth=depth,
            cache_hit=outcome.cache_hit,
            solver_ran=not outcome.cache_hit,
            latency=outcome.latency,
            failures=tuple(failures),
        )

    def _chain_length(self) -> int:
        """Depth index of the proportional rung (primary = 0)."""
        return 1 + len(self.config.fallback_methods)

    # -- circuit breaker ---------------------------------------------------------------

    @property
    def circuit_state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"``."""
        return self.metrics.circuit_state

    def _pin(self, now: float, outcome: SupervisedOutcome) -> None:
        self._last_good = _PinnedSplit(
            weights=outcome.weights,
            result=outcome.result,
            shed_fraction=outcome.shed_fraction,
            solved_rate=outcome.solved_rate,
            fingerprint=self.health.fingerprint(),
            pinned_at=now,
        )

    def _serve_pinned(self, now: float, offered_rate: float) -> SupervisedOutcome:
        self.metrics.counters.circuit_rejections += 1
        pin = self._last_good
        if pin is not None and pin.fingerprint == self.health.fingerprint():
            self.metrics.fallback_depth.record("circuit-pinned", self._chain_length() + 1)
            return SupervisedOutcome(
                weights=pin.weights,
                result=pin.result,
                shed_fraction=pin.shed_fraction,
                solved_rate=pin.solved_rate,
                source="circuit-pinned",
                depth=self._chain_length() + 1,
                stale_for=now - pin.pinned_at,
            )
        # Topology changed under the pin (or nothing was ever pinned):
        # the stale split might route to a dead server.  Rebuild a safe
        # solver-free split for the current topology and re-pin it.
        outcome = self._proportional(now, offered_rate, ["circuit open; pin stale"])
        self.metrics.fallback_depth.record(outcome.source, outcome.depth)
        self.metrics.incidents.note(
            now,
            "fallback",
            "warning",
            "circuit open and topology changed; re-pinned proportional split",
            source=outcome.source,
        )
        self._pin(now, outcome)
        return outcome

    def _open_circuit(self, now: float) -> None:
        breaker = self._breaker
        self.metrics.counters.circuit_opens += 1
        self._transition(now, "open")
        self.metrics.incidents.note(
            now,
            "circuit-open",
            "critical",
            f"{breaker.consecutive_failures} consecutive primary solver "
            f"failures; pinning last-known-good split for "
            f"{self.config.breaker_cooldown:g} time units",
            consecutive_failures=breaker.consecutive_failures,
            open_until=breaker.open_until,
        )

    def _close_circuit(self, now: float) -> None:
        self.metrics.counters.circuit_closes += 1
        self._transition(now, "closed")
        self.metrics.incidents.note(
            now, "circuit-close", "info", "half-open probe succeeded"
        )

    # -- durable state -----------------------------------------------------------------

    def state_dict(self, encode_result) -> dict:
        """Snapshot the breaker and the pinned last-known-good split.

        ``encode_result`` serializes a
        :class:`~repro.core.result.LoadDistributionResult` to a
        JSON-safe dict (owned by the checkpoint codec).  The circuit
        *gauge* string lives in ``metrics.circuit_state`` and travels
        with the metrics snapshot.
        """
        pin = self._last_good
        return {
            **self._breaker.state_dict(),
            "last_good": None
            if pin is None
            else {
                "weights": [float(w) for w in pin.weights],
                "result": None if pin.result is None else encode_result(pin.result),
                "shed_fraction": pin.shed_fraction,
                "solved_rate": pin.solved_rate,
                "fingerprint": pin.fingerprint,
                "pinned_at": pin.pinned_at,
            },
        }

    def load_state(self, state: dict, decode_result) -> None:
        """Restore a :meth:`state_dict` snapshot.

        A restored *open* breaker keeps serving the restored pin until
        its original cooldown deadline — a controller crash must not
        reset the cooldown and hammer a solver that was failing moments
        before the crash.
        """
        self._breaker.load_state(state)
        pin = state["last_good"]
        if pin is None:
            self._last_good = None
        else:
            result = pin["result"]
            self._last_good = _PinnedSplit(
                weights=np.asarray(pin["weights"], dtype=float),
                result=None if result is None else decode_result(result),
                shed_fraction=float(pin["shed_fraction"]),
                solved_rate=float(pin["solved_rate"]),
                fingerprint=_deep_tuple(pin["fingerprint"]),
                pinned_at=float(pin["pinned_at"]),
            )

    # -- the decision ------------------------------------------------------------------

    def resolve(self, now: float, offered_rate: float) -> SupervisedOutcome:
        """One supervised controller decision.  Never raises.

        When observability is enabled the decision is wrapped in a
        ``fallback`` span (attrs: source, depth, swallowed fault count)
        and lands in ``repro_supervised_total{source}`` and the
        ``repro_fallback_depth`` histogram; breaker state changes count
        into ``repro_breaker_transitions_total{to}``.
        """
        o = get_obs()
        if not o.enabled:
            return self._decide(now, offered_rate)
        with o.tracer.span("fallback", t=now, rate=float(offered_rate)) as sp:
            outcome = self._decide(now, offered_rate)
            sp.note(
                source=outcome.source,
                depth=outcome.depth,
                swallowed=len(outcome.failures),
            )
        reg = o.registry
        reg.counter(
            "repro_supervised_total",
            "Supervised decisions by provenance",
            labels=("source",),
        ).labels(source=outcome.source).inc()
        reg.histogram(
            "repro_fallback_depth",
            "Fallback-chain rung that answered each decision (0 = primary)",
            edges=tuple(float(i) for i in range(9)),
        ).observe(float(outcome.depth))
        return outcome

    def _decide(self, now: float, offered_rate: float) -> SupervisedOutcome:
        if self.health.all_down:
            outcome = self._shed_all(now, offered_rate)
            self._last_good = None  # any pin predates the dark cluster
            return outcome

        state = self._breaker.admit(now)
        if state == "open":
            return self._serve_pinned(now, offered_rate)
        if state == "probe":
            self._transition(now, "half-open")

        failures: list[str] = []
        outcome = self._attempt_chain(now, offered_rate, failures, state)
        if self.config.watchdog:
            outcome = self._enforce_invariants(now, offered_rate, outcome)
        if outcome.source != "cluster-down":
            self._pin(now, outcome)
        return outcome

    def _attempt_chain(
        self, now: float, offered_rate: float, failures: list[str], state: str
    ) -> SupervisedOutcome:
        cfg = self.config
        primary_allowed = state != "blocked"
        primary_failed = False

        if primary_allowed:
            for _ in range(self._breaker.attempts(state)):
                try:
                    outcome = self.controller.resolve(offered_rate)
                except ClusterDownError:
                    return self._shed_all(now, offered_rate)
                except Exception as exc:  # noqa: BLE001 - the whole point
                    primary_failed = True
                    failures.append(f"primary: {exc}")
                    self.metrics.counters.resolve_failures += 1
                    self.metrics.incidents.note(
                        now,
                        "solver-failure",
                        "warning",
                        f"primary solver attempt failed: {exc}",
                        rung="primary",
                    )
                else:
                    if self._breaker.succeed():
                        self._close_circuit(now)
                    self.metrics.fallback_depth.record("primary", 0)
                    return self._from_controller(outcome, "primary", 0, failures)
            # All primary attempts failed; a failed probe re-opens.
            if self._breaker.fail(now) is not None:
                self._open_circuit(now)

        if primary_failed or not primary_allowed:
            self.metrics.counters.fallback_resolves += 1

        for rung, method in enumerate(cfg.fallback_methods, start=1):
            try:
                outcome = self.controller.resolve(offered_rate, method=method)
            except ClusterDownError:
                return self._shed_all(now, offered_rate)
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{method}: {exc}")
                self.metrics.counters.resolve_failures += 1
                self.metrics.incidents.note(
                    now,
                    "solver-failure",
                    "warning",
                    f"fallback solver {method!r} failed: {exc}",
                    rung=method,
                )
            else:
                source = f"fallback:{method}"
                self.metrics.fallback_depth.record(source, rung)
                self.metrics.incidents.note(
                    now,
                    "fallback",
                    "warning",
                    f"decision answered by fallback backend {method!r}",
                    source=source,
                    swallowed=len(failures),
                )
                return self._from_controller(outcome, source, rung, failures)

        try:
            outcome = self._proportional(now, offered_rate, failures)
        except ClusterDownError:
            return self._shed_all(now, offered_rate)
        self.metrics.fallback_depth.record(outcome.source, outcome.depth)
        self.metrics.incidents.note(
            now,
            "fallback",
            "warning",
            "decision answered by the capacity-proportional heuristic",
            source=outcome.source,
            swallowed=len(failures),
        )
        return outcome

    # -- invariant watchdog ------------------------------------------------------------

    def check_invariants(self, outcome: SupervisedOutcome) -> list[str]:
        """Violation messages for an outcome (empty = safe)."""
        violations: list[str] = []
        w = outcome.weights
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            violations.append("weights must be finite and non-negative")
            return violations
        if outcome.shed_fraction >= 1.0:
            if np.any(w != 0.0):
                violations.append("shed-all outcome carries routing weight")
            return violations
        total = float(w.sum())
        if abs(total - 1.0) > 1e-6:
            violations.append(f"weights sum to {total!r}, not 1")
        down = ~self.health.up_mask
        if np.any(w[down] != 0.0):
            violations.append("positive routing weight on a down server")
        if total > 0.0:
            active = self.health.active_group()
            idx = list(self.health.active_indices)
            rates = outcome.solved_rate * (w[idx] / total)
            rho = active.utilizations(rates)
            if np.any(rho > self.config.rho_cap):
                worst = float(np.max(rho))
                violations.append(
                    f"active utilization {worst:.6g} exceeds rho cap "
                    f"{self.config.rho_cap:g}"
                )
        return violations

    def _enforce_invariants(
        self, now: float, offered_rate: float, outcome: SupervisedOutcome
    ) -> SupervisedOutcome:
        violations = self.check_invariants(outcome)
        if not violations:
            return outcome
        self.metrics.counters.watchdog_violations += 1
        self.metrics.incidents.note(
            now,
            "invariant-violation",
            "critical",
            f"unsafe split from {outcome.source} repaired: "
            + "; ".join(violations),
            source=outcome.source,
            violations=violations,
        )
        if outcome.source == "fallback:proportional":
            # The safe rung itself failed its own invariants — nothing
            # softer than shedding everything is defensible.
            return self._shed_all(now, offered_rate)
        repaired = self._proportional(
            now, offered_rate, list(outcome.failures) + violations
        )
        self.metrics.fallback_depth.record(repaired.source, repaired.depth)
        return repaired
