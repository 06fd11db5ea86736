"""Operational metrics of the online load-distribution runtime.

Plain dataclasses and small accumulators — no exporter dependency — so
both the simulation harness and any future metrics endpoint (Prometheus,
CSV, logging) consume the same objects.  Everything here is *observed*
by the runtime's hot path, so the accumulators are O(1) per event.

The incident, fallback-depth, shed, and admission accumulators and the
response-time histogram are backed by a per-instance
:class:`repro.obs.MetricsRegistry` (see
:attr:`RuntimeMetrics.registry`): the historical attribute surface
(``incidents.counts``, ``fallback_depth.by_source``, ``shed.events``,
...) is preserved as property shims over the registry families, and
the registry itself is deliberately *not* the process-global one so
parallel runs (the 20-seed chaos suite) never share counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.exceptions import ParameterError
from ..obs import Histogram, MetricsRegistry
from ..sim.stats import RunningStats

__all__ = [
    "RuntimeCounters",
    "RateGauges",
    "IncidentRecord",
    "IncidentLog",
    "FallbackDepthCounters",
    "ShedTracker",
    "AdmissionTracker",
    "RuntimeMetrics",
    "FleetCounters",
    "FleetMetrics",
]


@dataclass
class RuntimeCounters:
    """Monotonic event counters of one runtime instance."""

    #: Generic arrivals offered to the runtime (pre-shedding).
    arrivals: int = 0
    #: Tasks actually routed to a server.
    routed: int = 0
    #: Tasks shed in degraded mode.
    shed: int = 0
    #: Solver invocations (cache misses).
    resolves: int = 0
    #: Re-solve requests answered from the LRU cache.
    cache_hits: int = 0
    #: Re-solves triggered by the drift detector.
    drift_triggers: int = 0
    #: Re-solves triggered by the periodic timer.
    periodic_triggers: int = 0
    #: Splits adopted (replaced the live routing weights).
    adoptions: int = 0
    #: Splits discarded by hysteresis (too close to the live split).
    hysteresis_skips: int = 0
    #: Server-down events observed.
    failures: int = 0
    #: Server-up events observed.
    recoveries: int = 0
    #: Solver invocations that raised (injected or organic faults).
    resolve_failures: int = 0
    #: Controller decisions answered by a fallback rung instead of the
    #: primary backend.
    fallback_resolves: int = 0
    #: Circuit-breaker openings, re-opens after a failed probe included.
    circuit_opens: int = 0
    #: Circuit-breaker transitions back to closed (successful probe).
    circuit_closes: int = 0
    #: Decisions short-circuited to the pinned split while the breaker
    #: was open (no solver attempt made).
    circuit_rejections: int = 0
    #: Decisions taken with every server down (shed-all mode).
    cluster_down_events: int = 0
    #: Invariant-watchdog violations detected (each one also produces
    #: an incident record and a repaired, safe split).
    watchdog_violations: int = 0


class RateGauges:
    """Per-server routed-rate gauges.

    Tracks cumulative routed counts plus an interval window so a
    scraper can read "tasks/second since the last snapshot" — the
    quantity the ISSUE's routed-rate dashboards plot against the
    analytic ``lambda'_i``.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        #: Cumulative routed tasks per server.
        self.counts = np.zeros(n, dtype=np.int64)
        self._window_start = 0.0
        self._window_counts = np.zeros(n, dtype=np.int64)

    def record(self, server: int) -> None:
        """Count one task routed to ``server``."""
        self.counts[server] += 1
        self._window_counts[server] += 1

    def cumulative_rates(self, now: float) -> np.ndarray:
        """Per-server routed rates over the whole run ``[0, now]``."""
        if now <= 0.0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / now

    def snapshot(self, now: float) -> np.ndarray:
        """Per-server rates since the previous snapshot, then reset."""
        width = now - self._window_start
        rates = (
            self._window_counts / width
            if width > 0.0
            else np.zeros_like(self._window_counts, dtype=float)
        )
        self._window_start = now
        self._window_counts = np.zeros_like(self._window_counts)
        return rates

    def state_dict(self) -> dict:
        """JSON-safe snapshot of cumulative and window counts."""
        return {
            "counts": [int(c) for c in self.counts],
            "window_start": self._window_start,
            "window_counts": [int(c) for c in self._window_counts],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        counts = np.asarray(state["counts"], dtype=np.int64)
        if counts.shape != self.counts.shape:
            raise ParameterError("routed-gauge server count changed; cannot restore")
        self.counts = counts
        self._window_start = float(state["window_start"])
        self._window_counts = np.asarray(state["window_counts"], dtype=np.int64)


@dataclass(frozen=True)
class IncidentRecord:
    """One structured resilience incident, in simulated time.

    The supervisor emits these whenever the control plane deviates from
    the happy path: a solver fault, a fallback, a circuit transition, a
    watchdog violation, a dark cluster, or a shed-mode transition.  The
    schema is deliberately flat — ``(time, kind, severity, detail)``
    plus a free-form ``data`` mapping — so chaos reports, CI artifacts,
    and any future exporter serialize it without adapters.

    Attributes
    ----------
    time:
        Simulation time of the incident.
    kind:
        Machine-readable incident class, e.g. ``"solver-failure"``,
        ``"fallback"``, ``"circuit-open"``, ``"circuit-close"``,
        ``"cluster-down"``, ``"invariant-violation"``, ``"shed-start"``,
        ``"shed-stop"``.
    severity:
        ``"info"``, ``"warning"``, or ``"critical"``.
    detail:
        Human-readable one-liner.
    data:
        Incident-specific structured payload (error strings, fallback
        depth, staleness, offending invariant, ...).
    """

    time: float
    kind: str
    severity: str
    detail: str
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serializable for CI artifacts)."""
        return {
            "time": self.time,
            "kind": self.kind,
            "severity": self.severity,
            "detail": self.detail,
            "data": dict(self.data),
        }


class IncidentLog:
    """Bounded, ordered store of :class:`IncidentRecord` objects.

    Keeps the most recent ``capacity`` records (chaos runs under a
    hostile schedule can emit one incident per arrival; the log must
    not grow with the horizon) while counting every record per kind so
    totals survive eviction.
    """

    def __init__(
        self, capacity: int = 1024, registry: MetricsRegistry | None = None
    ) -> None:
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._records: list[IncidentRecord] = []
        self._counts = (
            registry if registry is not None else MetricsRegistry()
        ).counter(
            "runtime_incidents_total",
            "Incidents ever emitted (including evicted ones), per kind",
            labels=("kind",),
        )

    @property
    def counts(self) -> dict[str, int]:
        """Total records ever emitted, per kind (not just retained)."""
        return {k[0]: int(v) for k, v in self._counts.values_by_label().items()}

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> tuple[IncidentRecord, ...]:
        """The retained records, oldest first."""
        return tuple(self._records)

    @property
    def total(self) -> int:
        """Total incidents ever emitted (including evicted ones)."""
        return sum(self.counts.values())

    def emit(self, record: IncidentRecord) -> IncidentRecord:
        """Append a record, evicting the oldest beyond capacity."""
        self._records.append(record)
        if len(self._records) > self._capacity:
            del self._records[0]
        self._counts.labels(kind=record.kind).inc()
        return record

    def note(
        self, time: float, kind: str, severity: str, detail: str, **data
    ) -> IncidentRecord:
        """Build and :meth:`emit` one record; ``data`` is its payload."""
        return self.emit(IncidentRecord(time, kind, severity, detail, data))

    def of_kind(self, kind: str) -> tuple[IncidentRecord, ...]:
        """The retained records of one kind, oldest first."""
        return tuple(r for r in self._records if r.kind == kind)

    def load_records(self, records: list[dict]) -> None:
        """Replace the retained records from their dict forms.

        Per-kind totals live in the backing registry counter and are
        restored separately via the registry snapshot, so this touches
        only the bounded record list.
        """
        self._records = [IncidentRecord(**r) for r in records[-self._capacity :]]


class FallbackDepthCounters:
    """How deep into the fallback chain each controller decision went.

    Depth 0 is the primary backend; each further rung (alternate
    backend, proportional heuristic, pinned split, shed-all) increments
    its own depth bucket, keyed by the rung's source label.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        self._by_source = reg.counter(
            "runtime_fallback_total",
            "Decisions per provenance label",
            labels=("source",),
        )
        self._by_depth = reg.counter(
            "runtime_fallback_depth_total",
            "Decisions per fallback-chain depth (0 = primary)",
            labels=("depth",),
        )

    @property
    def by_source(self) -> dict[str, int]:
        """Decisions per source label (e.g. ``"primary"``,
        ``"fallback:bisection"``, ``"fallback:proportional"``,
        ``"circuit-pinned"``, ``"cluster-down"``)."""
        return {k[0]: int(v) for k, v in self._by_source.values_by_label().items()}

    @property
    def by_depth(self) -> dict[int, int]:
        """Decisions per numeric chain depth."""
        return {
            int(k[0]): int(v) for k, v in self._by_depth.values_by_label().items()
        }

    def record(self, source: str, depth: int) -> None:
        """Count one decision answered by ``source`` at ``depth``."""
        self._by_source.labels(source=source).inc()
        self._by_depth.labels(depth=str(int(depth))).inc()

    @property
    def max_depth(self) -> int:
        """Deepest rung any decision reached (0 when only primary)."""
        return max(self.by_depth, default=0)

    @property
    def sources_used(self) -> frozenset[str]:
        """All source labels that answered at least one decision."""
        return frozenset(self.by_source)


class ShedTracker:
    """Gauge of the live shed fraction plus a shed-episode counter.

    ``update`` is called at every adopted control decision with the new
    shed fraction; a transition from zero to positive counts one *shed
    event* (episode), so "how often did we degrade?" is answerable
    separately from "how much did we drop?".
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        self._current = reg.gauge(
            "runtime_shed_fraction", "The live shed fraction"
        )
        self._events = reg.counter(
            "runtime_shed_episodes_total",
            "Transitions from not-shedding to shedding",
        )
        self._peak = reg.gauge(
            "runtime_shed_peak_fraction", "Largest shed fraction ever adopted"
        )
        #: Simulation time the current episode started (nan when not
        #: shedding).
        self.since: float = math.nan

    @property
    def current(self) -> float:
        """The live shed fraction (gauge)."""
        return float(self._current.value)

    @property
    def events(self) -> int:
        """Episodes: transitions from not-shedding to shedding."""
        return int(self._events.value)

    @property
    def peak(self) -> float:
        """Largest shed fraction ever adopted."""
        return float(self._peak.value)

    @property
    def shedding(self) -> bool:
        """Whether load is being shed right now."""
        return self.current > 0.0

    def update(self, now: float, fraction: float) -> None:
        """Record the shed fraction adopted at ``now``."""
        if fraction < 0.0 or fraction > 1.0 or not math.isfinite(fraction):
            raise ParameterError(f"shed fraction must be in [0, 1], got {fraction!r}")
        if fraction > 0.0 and self.current == 0.0:
            self._events.inc()
            self.since = now
        elif fraction == 0.0 and self.current > 0.0:
            self.since = math.nan
        self._current.set(fraction)
        if fraction > self.peak:
            self._peak.set(fraction)


class AdmissionTracker:
    """Per-decision admission counters plus brownout-transition totals.

    Fed by the runtime on every admission verdict
    (``record(decision, cls)`` with decision in ``{"admit", "aqm",
    "bucket", "shed-all"}``) and on every brownout state change
    (``transition(state)``).  Registry-backed so the totals ride the
    :class:`RuntimeMetrics` snapshot like the incident counts do.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        self._decisions = reg.counter(
            "runtime_admission_total",
            "Admission decisions per outcome and priority class",
            labels=("decision", "cls"),
        )
        self._transitions = reg.counter(
            "runtime_brownout_transitions_total",
            "Brownout state-machine entries, per target state",
            labels=("state",),
        )
        #: The most recently entered brownout state.
        self.state: str = "normal"

    def record(self, decision: str, cls: int) -> None:
        """Count one admission verdict for priority class ``cls``."""
        self._decisions.labels(decision=decision, cls=str(int(cls))).inc()

    def transition(self, state: str) -> None:
        """Count one brownout state entry and update the live state."""
        self._transitions.labels(state=state).inc()
        self.state = state

    @property
    def decisions(self) -> dict[tuple[str, int], int]:
        """Totals keyed by ``(decision, class)``."""
        return {
            (k[0], int(k[1])): int(v)
            for k, v in self._decisions.values_by_label().items()
        }

    @property
    def transitions(self) -> dict[str, int]:
        """Brownout entries per target state."""
        return {
            k[0]: int(v) for k, v in self._transitions.values_by_label().items()
        }

    def admitted_by_class(self, cls: int) -> int:
        """Tasks admitted in priority class ``cls``."""
        return self.decisions.get(("admit", int(cls)), 0)

    def shed_by_class(self, cls: int) -> int:
        """Tasks rejected (any reason) in priority class ``cls``."""
        return sum(
            v for (d, c), v in self.decisions.items() if c == int(cls) and d != "admit"
        )

    def shed_fraction(self, cls: int) -> float:
        """Rejected fraction of everything offered in class ``cls``."""
        admitted = self.admitted_by_class(cls)
        shed = self.shed_by_class(cls)
        offered = admitted + shed
        return shed / offered if offered else 0.0


@dataclass
class RuntimeMetrics:
    """The full metric set of one :class:`~repro.runtime.loop.LoadDistributionRuntime`.

    Attributes
    ----------
    counters:
        Event counters (see :class:`RuntimeCounters`).
    routed:
        Per-server routed-rate gauges.
    resolve_latency:
        Wall-clock seconds per solver invocation (cache misses only).
    response_time:
        Welford accumulator over observed generic response times.
    response_histogram:
        Log-binned histogram of the same observations (tail queries):
        the ``runtime_response_time`` family of :attr:`registry`.
    incidents:
        Bounded log of structured resilience incidents.
    fallback_depth:
        Per-source / per-depth decision counters of the fallback chain.
    shed:
        Live shed-fraction gauge and shed-episode counter.
    admission:
        Per-decision admission counters and brownout-transition totals
        (all zero when ``RuntimeConfig.admission`` is off).
    registry:
        The per-instance metrics registry the incident/fallback/shed/
        admission accumulators and the response histogram record into.
        Per instance, not the process-global :func:`repro.obs.get_obs`
        registry, so concurrent runs (e.g. the multi-seed chaos suite)
        never contaminate each other.
    circuit_state:
        The supervisor's circuit-breaker state gauge (``"closed"``,
        ``"open"``, or ``"half-open"``); stays ``"closed"`` when no
        supervisor is attached.
    """

    counters: RuntimeCounters
    routed: RateGauges
    resolve_latency: RunningStats = field(default_factory=RunningStats)
    response_time: RunningStats = field(default_factory=RunningStats)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    circuit_state: str = "closed"
    response_histogram: Histogram = field(init=False)
    incidents: IncidentLog = field(init=False)
    fallback_depth: FallbackDepthCounters = field(init=False)
    shed: ShedTracker = field(init=False)
    admission: AdmissionTracker = field(init=False)

    def __post_init__(self) -> None:
        # Every registry-backed accumulator records into ``registry``.
        reg = self.registry
        self.incidents = IncidentLog(registry=reg)
        self.fallback_depth = FallbackDepthCounters(registry=reg)
        self.shed = ShedTracker(registry=reg)
        self.admission = AdmissionTracker(registry=reg)
        self.response_histogram = reg.histogram(
            "runtime_response_time",
            "Observed generic response times (simulated time units)",
            lo=1e-3,
            hi=1e3,
            buckets=60,
        ).child

    @classmethod
    def for_group_size(cls, n: int) -> "RuntimeMetrics":
        """Fresh metrics for an ``n``-server group."""
        return cls(counters=RuntimeCounters(), routed=RateGauges(n))

    def on_response(self, response_time: float) -> None:
        """Record one completed generic task's response time."""
        self.response_time.add(response_time)
        self.response_histogram.observe(response_time)

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the full metric set (lossless)."""
        from dataclasses import asdict

        return {
            "counters": asdict(self.counters),
            "routed": self.routed.state_dict(),
            "resolve_latency": self.resolve_latency.state_dict(),
            "response_time": self.response_time.state_dict(),
            "incidents": [r.to_dict() for r in self.incidents.records],
            "shed_since": self.shed.since,
            "circuit_state": self.circuit_state,
            "brownout_state": self.admission.state,
            "registry": self.registry.collect(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The registry snapshot is restored first so the incident /
        fallback / shed totals and the response histogram (registry-
        backed families) land before the plain accumulators are
        overwritten.
        """
        self.registry.restore_snapshot(state["registry"])
        counters = state["counters"]
        for name in counters:
            setattr(self.counters, name, int(counters[name]))
        self.routed.load_state(state["routed"])
        self.resolve_latency.load_state(state["resolve_latency"])
        self.response_time.load_state(state["response_time"])
        self.incidents.load_records(state["incidents"])
        self.shed.since = float(state["shed_since"])
        self.circuit_state = str(state["circuit_state"])
        self.admission.state = str(state.get("brownout_state", "normal"))

    @property
    def shed_fraction_observed(self) -> float:
        """Fraction of offered arrivals that were shed."""
        if self.counters.arrivals == 0:
            return 0.0
        return self.counters.shed / self.counters.arrivals


@dataclass
class FleetCounters:
    """Monotonic event counters of one sharded fleet's supervisor."""

    #: Coordinator rebalance ticks attempted (supervised path).
    rebalance_attempts: int = 0
    #: Rebalance ticks whose global re-solve succeeded and was adopted.
    rebalance_successes: int = 0
    #: Individual solve attempts that raised (one tick may retry).
    rebalance_failures: int = 0
    #: Extra same-tick solve attempts after a primary failure.
    rebalance_retries: int = 0
    #: Ticks skipped outright (breaker open or inside backoff).
    rebalance_skipped: int = 0
    #: Coordinator circuit-breaker transitions closed -> open.
    breaker_opens: int = 0
    #: Coordinator circuit-breaker transitions back to closed.
    breaker_closes: int = 0
    #: Heartbeat sweeps performed.
    heartbeat_checks: int = 0
    #: Shards declared dead and failed over (share zeroed).
    failovers: int = 0
    #: Shards spliced back after restore/stall-end.
    restores: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serializable for CI artifacts)."""
        from dataclasses import asdict

        return asdict(self)


@dataclass
class FleetMetrics:
    """Metric set of one :class:`~repro.shard.supervisor.ShardSupervisor`.

    Per-shard metrics stay on each shard's own
    :class:`RuntimeMetrics`; this object holds only the fleet-level
    control plane: coordinator rebalance outcomes, heartbeat/failover
    events, and the degraded-mode state.

    Attributes
    ----------
    counters:
        Fleet event counters (see :class:`FleetCounters`).
    incidents:
        Bounded log of structured fleet incidents (``"shard-dead"``,
        ``"shard-restored"``, ``"rebalance-failure"``,
        ``"coordinator-breaker-open"``, ``"fleet-dark"``, ...).
    rebalance_latency:
        Wall-clock seconds per attempted global re-solve.
    registry:
        Per-instance registry backing the incident counts — same
        isolation rule as :class:`RuntimeMetrics`.
    degraded:
        Number of shards currently failed over (0 = healthy fleet).
    """

    counters: FleetCounters = field(default_factory=FleetCounters)
    rebalance_latency: RunningStats = field(default_factory=RunningStats)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    degraded: int = 0
    incidents: IncidentLog = field(init=False)

    def __post_init__(self) -> None:
        self.incidents = IncidentLog(registry=self.registry)
