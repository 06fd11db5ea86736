"""Chaos acceptance harness: closed-loop runs under randomized faults.

Three suites share one seed loop.  For every seed it draws the fault
schedule, gives crash-prone seeds a recovery directory, runs the closed
loop, records a failed run instead of dying when the loop raises, and
scores the post-fault tail window against the analytic optimum ``T'``
of the healed system.  Each suite only adds its runner and its audit:

* :func:`run_chaos` drives :func:`~repro.runtime.loop.run_closed_loop`
  and audits the resilience contract: the run completes, the invariant
  watchdog never fires, no generic task is admitted to a server inside
  a delivered down window, and the tail re-converges to ``T'``.
* :func:`run_sharded_chaos` drives
  :func:`~repro.shard.runtime.run_sharded_closed_loop` under schedules
  that add shard-targeted and coordinator solver faults, and audits the
  :class:`~repro.shard.supervisor.ShardSupervisor` contract: failover
  within the heartbeat bound, bounded shed while a shard is dark, and
  tail re-convergence of the healed fleet.
* :func:`run_overload_chaos` drives a burst past capacity with
  retrying clients and audits whether the run recovers to the
  base-rate ``T'`` instead of going metastable.

Per-seed records and aggregate reports are plain data with ``to_dict``
methods, so a CI job can archive the full evidence trail as JSON
(:func:`dump_chaos_artifacts`).
"""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.exceptions import ParameterError
from ..core.server import BladeServerGroup
from ..core.solvers import dispatch
from ..obs import get_obs
from ..recovery.checkpoint import RecoveryConfig
from ..recovery.journal import atomic_write_json
from ..runtime.loop import RuntimeConfig, run_closed_loop
from ..workloads.traces import RateTrace
from .injectors import FaultPlan
from .schedule import (
    SHARD_FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
    random_fault_schedule,
)

__all__ = [
    "ChaosRunRecord",
    "ChaosSuiteReport",
    "ShardChaosRunRecord",
    "ShardChaosSuiteReport",
    "OverloadRunRecord",
    "OverloadSuiteReport",
    "run_chaos",
    "run_sharded_chaos",
    "run_overload_chaos",
    "compile_overload_trace",
    "dump_chaos_artifacts",
]


def _replication_ci(
    means: np.ndarray, confidence: float
) -> tuple[float, float]:
    """Replication confidence interval over per-seed tail means."""
    from scipy import stats as scipy_stats

    if means.size < 2:
        raise ParameterError("need >= 2 completed runs for a replication CI")
    center = float(np.mean(means))
    half = float(
        scipy_stats.t.ppf(0.5 + confidence / 2.0, df=means.size - 1)
        * np.std(means, ddof=1)
        / math.sqrt(means.size)
    )
    return center - half, center + half


def _plain(value):
    """JSON-safe form of a record or report value."""
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value


@dataclass(frozen=True)
class _RunRecord:
    """Audit fields every seeded run shares."""

    #: The seed (drives the schedule, the injections, and the sim).
    seed: int
    #: The schedule the run was subjected to (declarative form).
    schedule: dict
    #: Whether the closed loop ran to the horizon without an exception.
    completed: bool
    #: The escaped exception, when ``completed`` is False.
    error: str | None
    #: Fraction of offered arrivals shed over the whole run.
    shed_fraction_observed: float = 0.0
    #: Incident totals per kind.
    incident_counts: dict = field(default_factory=dict)
    #: Retained incident records (dict form), for artifacts.
    incidents: tuple = ()
    #: Mean generic ``T'`` over the post-fault tail window.
    tail_mean: float = math.nan
    #: Tasks the tail mean averages over.
    tail_count: int = 0
    #: The analytic optimum of the healed system.
    analytic_t_prime: float = math.nan
    #: ``|tail_mean - analytic| / analytic``.
    tail_relative_error: float = math.nan

    def to_dict(self) -> dict:
        """JSON-serializable form for CI artifacts."""
        return {
            f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)
        }


def _summed(name: str, doc: str) -> property:
    """Report property: record field ``name`` summed over all runs."""
    return property(lambda self: sum(getattr(r, name) for r in self.records), doc=doc)


def _worst(name: str, doc: str) -> property:
    """Report property: largest non-NaN ``name`` over completed runs."""

    def worst(self) -> float:
        values = [
            getattr(r, name)
            for r in self.records
            if r.completed and not math.isnan(getattr(r, name))
        ]
        return max(values) if values else math.nan

    return property(worst, doc=doc)


@dataclass(frozen=True)
class _SuiteReport:
    """Aggregate verdict over every seeded run of one suite."""

    records: tuple
    analytic_t_prime: float

    #: Report properties :meth:`to_dict` exports beside the common ones.
    _summary = ()

    @property
    def n_runs(self) -> int:
        """Number of seeded runs in the suite."""
        return len(self.records)

    @property
    def all_completed(self) -> bool:
        """Whether every run finished without an escaped exception."""
        return all(r.completed for r in self.records)

    @property
    def failed_seeds(self) -> tuple[int, ...]:
        """Seeds whose runs raised."""
        return tuple(r.seed for r in self.records if not r.completed)

    @property
    def tail_means(self) -> np.ndarray:
        """Post-fault tail means of the completed runs."""
        return np.array(
            [r.tail_mean for r in self.records if r.completed], dtype=float
        )

    def tail_confidence_interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Replication CI over the per-seed post-fault tail means."""
        return _replication_ci(self.tail_means, confidence)

    def reconverged(self, confidence: float = 0.95) -> bool:
        """Whether the analytic ``T'`` lies inside the replication CI."""
        lo, hi = self.tail_confidence_interval(confidence)
        return lo <= self.analytic_t_prime <= hi

    def to_dict(self) -> dict:
        """JSON-serializable form for CI artifacts."""
        keys = ("n_runs", "all_completed", "failed_seeds", *self._summary)
        return {
            **{k: _plain(getattr(self, k)) for k in keys},
            "analytic_t_prime": self.analytic_t_prime,
            "records": [r.to_dict() for r in self.records],
        }


def _run_suite(
    report: type,
    record: type,
    group: BladeServerGroup,
    rate: float,
    *,
    seeds: Sequence[int],
    horizon: float,
    settle: float | None,
    config: RuntimeConfig | None,
    runner: Callable = run_closed_loop,
    schedule_for: Callable[[int], FaultSchedule],
    audit: Callable[[object, FaultSchedule, FaultPlan], dict],
    trace_for: Callable[[FaultSchedule], RateTrace] | None = None,
    needs_recovery: Callable[[FaultPlan], bool] = lambda plan: False,
    recovery_dir: str | None = None,
    run_kwargs: dict | None = None,
    failed_fields: dict | None = None,
):
    """The seed loop every chaos suite runs; returns the ``report``.

    Per seed: draw ``schedule_for(seed)``, run ``runner`` (a closed
    loop over ``trace_for(schedule)``, constant ``rate`` by default,
    plus ``run_kwargs``) and turn a completed run into the suite's own
    ``record`` fields with ``audit(out, schedule, plan)``.  A seed whose
    plan ``needs_recovery`` gets its own journal/checkpoint directory
    under ``recovery_dir`` (a fresh temporary directory by default)
    unless ``config`` already enables recovery.  A run that raises
    becomes a failed record carrying ``failed_fields``.  The tail window
    starts ``settle`` after the last fault (default: 30% of the
    post-fault stretch), capped at 95% of the horizon.
    """
    if config is None:
        config = RuntimeConfig(router="alias")
    analytic = dispatch(group, rate, config.discipline).mean_response_time
    records = []
    for seed in seeds:
        schedule = schedule_for(seed)
        plan = FaultPlan(schedule)
        run_config = config
        if needs_recovery(plan) and not config.recovery.enabled:
            # Crash runs need somewhere durable to restore from; give
            # each seed its own journal/checkpoint directory.
            if recovery_dir is None:
                recovery_dir = tempfile.mkdtemp(prefix="repro-chaos-recovery-")
            run_config = dataclasses.replace(
                config,
                recovery=RecoveryConfig(
                    enabled=True,
                    directory=os.path.join(recovery_dir, f"seed-{seed}"),
                ),
            )
        common = dict(seed=seed, schedule=schedule.to_dict(), analytic_t_prime=analytic)
        try:
            out = runner(
                group,
                RateTrace.constant(rate) if trace_for is None else trace_for(schedule),
                run_config,
                horizon=horizon,
                warmup=0.0,
                seed=seed,
                fault_plan=plan,
                collect_tasks=True,
                **(run_kwargs or {}),
            )
        except Exception as exc:  # noqa: BLE001 - the suite must report, not die
            records.append(
                record(
                    completed=False,
                    error=f"{type(exc).__name__}: {exc}",
                    **common,
                    **(failed_fields or {}),
                )
            )
            continue
        fault_end = schedule.last_fault_end
        pad = settle if settle is not None else 0.3 * (horizon - fault_end)
        tail_start = min(fault_end + pad, horizon * 0.95)
        tail = [
            t.response_time
            for t in out.sim.task_log
            if t.task_class.name == "GENERIC" and t.arrival_time >= tail_start
        ]
        tail_mean = float(np.mean(tail)) if tail else math.nan
        records.append(
            record(
                completed=True,
                error=None,
                tail_mean=tail_mean,
                tail_count=len(tail),
                tail_relative_error=(
                    abs(tail_mean - analytic) / analytic if tail else math.nan
                ),
                **common,
                **audit(out, schedule, plan),
            )
        )
    return report(records=tuple(records), analytic_t_prime=analytic)


def _incident_fields(log) -> dict:
    """The record fields an :class:`~repro.runtime.metrics.IncidentLog` fills."""
    return {
        "incident_counts": dict(log.counts),
        "incidents": tuple(r.to_dict() for r in log),
    }


def _restore_fields(out) -> dict:
    """Crash/restore cycles of one run and the journal records they replayed."""
    return {
        "crashes": len(out.restores),
        "journal_replayed": sum(r.replayed_records for r in out.restores),
    }


@dataclass(frozen=True)
class ChaosRunRecord(_RunRecord):
    """Audit of one seeded chaos run."""

    #: Invariant-watchdog violations recorded by the supervisor.
    watchdog_violations: int = 0
    #: Generic tasks admitted to a server inside a delivered down
    #: window (audited post-hoc from the task log).
    routed_to_down: int = 0
    #: Fallback-chain sources that answered at least one decision.
    sources_used: frozenset = frozenset()
    #: Deepest fallback rung reached.
    max_fallback_depth: int = 0
    #: Control-plane crash/restore cycles performed during the run.
    crashes: int = 0
    #: Journal records replayed across those restores.
    journal_replayed: int = 0


class ChaosSuiteReport(_SuiteReport):
    """Aggregate verdict over every seeded chaos run."""

    _summary = (
        "total_watchdog_violations",
        "total_routed_to_down",
        "sources_used",
    )

    total_watchdog_violations = _summed(
        "watchdog_violations", "Watchdog violations summed over all runs."
    )
    total_routed_to_down = _summed(
        "routed_to_down", "Down-server routing audit failures summed over all runs."
    )
    total_crashes = _summed("crashes", "Crash/restore cycles summed over all runs.")

    @property
    def sources_used(self) -> frozenset:
        """Union of fallback sources exercised across the suite."""
        return frozenset().union(*(r.sources_used for r in self.records))

    def render(self) -> str:
        """Human-readable per-seed summary table."""
        lines = [
            f"{'seed':>5} {'ok':>3} {'viol':>5} {'down-rt':>7} {'depth':>5} "
            f"{'shed':>6} {'tail T_':>9} {'rel.err':>8}  sources"
        ]
        for r in self.records:
            lines.append(
                f"{r.seed:>5} {'y' if r.completed else 'N':>3} "
                f"{r.watchdog_violations:>5} {r.routed_to_down:>7} "
                f"{r.max_fallback_depth:>5} {r.shed_fraction_observed:>6.3f} "
                f"{r.tail_mean:>9.4f} {r.tail_relative_error:>8.4f}  "
                + ",".join(sorted(r.sources_used))
            )
        lines.append(
            f"analytic T' = {self.analytic_t_prime:.5f}; sources used: "
            + ", ".join(sorted(self.sources_used))
        )
        return "\n".join(lines)


def _down_intervals(timeline: Sequence[tuple[float, int, str]], horizon: float):
    """Per-server delivered-signal down windows from a health timeline."""
    intervals: dict[int, list[tuple[float, float]]] = {}
    open_at: dict[int, float] = {}
    for t, server, kind in sorted(timeline):
        if kind == "down":
            open_at.setdefault(server, t)
        elif kind == "up" and server in open_at:
            intervals.setdefault(server, []).append((open_at.pop(server), t))
    for server, t in open_at.items():
        intervals.setdefault(server, []).append((t, horizon))
    return intervals


def _audit_routing(out, timeline, horizon: float) -> int:
    """Count generic tasks admitted inside a delivered down window."""
    intervals = _down_intervals(timeline, horizon)
    if not intervals:
        return 0
    bad = 0
    for task in out.sim.task_log:
        if task.task_class.name != "GENERIC":
            continue
        for lo, hi in intervals.get(task.server_index, ()):
            # Strictly inside: a task arriving at the very instant the
            # signal is delivered may legitimately precede it in the
            # event order.
            if lo + 1e-9 < task.arrival_time < hi:
                bad += 1
                break
    return bad


def run_chaos(
    group: BladeServerGroup,
    rate: float,
    *,
    seeds: Sequence[int],
    horizon: float,
    config: RuntimeConfig | None = None,
    schedule_factory: Callable[[int], FaultSchedule] | None = None,
    settle: float | None = None,
    quiet_tail: float = 0.35,
    max_faults: int = 5,
    allow_cluster_down: bool = True,
    allow_crash: bool = False,
    recovery_dir: str | None = None,
) -> ChaosSuiteReport:
    """Run the chaos acceptance suite and return the audited report.

    Parameters
    ----------
    group, rate:
        The cluster and the (stationary) offered generic rate.
    seeds:
        One closed-loop run per seed; the seed drives the fault
        schedule, every injection coin flip, and the simulator streams.
    horizon:
        Simulated length of each run.
    config:
        Runtime tuning; defaults to the supervised alias-router setup
        the closed-loop validation uses.
    schedule_factory:
        Optional ``seed -> FaultSchedule`` override (crafted schedules
        for targeted tests); defaults to
        :func:`~repro.faults.schedule.random_fault_schedule`.
    settle:
        Time after the last fault window before the re-convergence
        tail starts; defaults to 30% of the post-fault stretch.
    quiet_tail, max_faults, allow_cluster_down:
        Forwarded to :func:`random_fault_schedule`.
    allow_crash:
        Add one control-plane ``crash`` point event per randomized
        schedule (see :func:`random_fault_schedule`); the crashed
        runtime is rebuilt from its write-ahead journal mid-run.
    recovery_dir:
        Base directory for the per-seed journal/checkpoint directories
        crash runs need.  Defaults to a fresh temporary directory.
        Recovery is auto-enabled (per-seed subdirectory) for any seed
        whose schedule carries a crash fault, whether it came from
        ``allow_crash`` or from a crafted ``schedule_factory``.
    """

    def schedule_for(seed: int) -> FaultSchedule:
        return random_fault_schedule(
            group.n,
            horizon,
            seed,
            quiet_tail=quiet_tail,
            max_faults=max_faults,
            allow_cluster_down=allow_cluster_down,
            allow_crash=allow_crash,
        )

    def audit(out, schedule, plan) -> dict:
        metrics = out.metrics
        return {
            "watchdog_violations": metrics.counters.watchdog_violations,
            "routed_to_down": _audit_routing(out, plan.health_timeline, horizon),
            "sources_used": metrics.fallback_depth.sources_used,
            "max_fallback_depth": metrics.fallback_depth.max_depth,
            "shed_fraction_observed": metrics.shed_fraction_observed,
            **_incident_fields(metrics.incidents),
            **_restore_fields(out),
        }

    return _run_suite(
        ChaosSuiteReport,
        ChaosRunRecord,
        group,
        rate,
        seeds=seeds,
        horizon=horizon,
        settle=settle,
        config=config,
        schedule_for=schedule_factory if schedule_factory is not None else schedule_for,
        audit=audit,
        needs_recovery=lambda plan: bool(plan.crash_specs),
        recovery_dir=recovery_dir,
    )


@dataclass(frozen=True)
class ShardChaosRunRecord(_RunRecord):
    """Audit of one seeded fleet-scale chaos run.

    ``shed_fraction_observed`` counts both per-shard degraded-mode
    shedding and failover shed; the incidents are the fleet's.
    """

    #: Shards the run was partitioned into.
    n_shards: int = 0
    #: Shards the heartbeat detector declared dead and failed over.
    failovers: int = 0
    #: Shards spliced back into the fleet (restore or stall-end).
    restores: int = 0
    #: Mid-run shard crash recoveries (restores backed by a
    #: :class:`~repro.recovery.resume.RestoreReport`).
    crashes: int = 0
    #: Journal records replayed across those shard recoveries.
    journal_replayed: int = 0
    #: ``(shard, latency)`` per detected failover: simulated time from
    #: the fault's start to the dead declaration.
    failover_latencies: tuple = ()
    #: Largest detection latency observed (NaN when none detected).
    max_failover_latency: float = math.nan
    #: Coordinator circuit-breaker openings.
    breaker_opens: int = 0
    #: Failed coordinator re-solve attempts (pre-retry granularity).
    rebalance_failures: int = 0
    #: Arrivals the split sent to a dead shard before failover re-split.
    failover_shed: int = 0


class ShardChaosSuiteReport(_SuiteReport):
    """Aggregate verdict over every seeded fleet chaos run."""

    _summary = (
        "total_failovers",
        "total_restores",
        "total_crashes",
        "max_failover_latency",
    )

    total_failovers = _summed("failovers", "Dead declarations summed over all runs.")
    total_restores = _summed("restores", "Splice-backs summed over all runs.")
    total_crashes = _summed(
        "crashes", "Shard crash/restore cycles summed over all runs."
    )
    max_failover_latency = _worst(
        "max_failover_latency",
        "Worst detection latency across the suite (NaN when none).",
    )
    max_shed_fraction = _worst(
        "shed_fraction_observed", "Worst per-run shed fraction across completed runs."
    )

    def render(self) -> str:
        """Human-readable per-seed summary table."""
        lines = [
            f"{'seed':>5} {'ok':>3} {'fail/rest':>9} {'crash':>5} "
            f"{'lat':>7} {'shed':>6} {'tail T_':>9} {'rel.err':>8}"
        ]
        for r in self.records:
            lines.append(
                f"{r.seed:>5} {'y' if r.completed else 'N':>3} "
                f"{r.failovers:>4}/{r.restores:<4} {r.crashes:>5} "
                f"{r.max_failover_latency:>7.1f} "
                f"{r.shed_fraction_observed:>6.3f} "
                f"{r.tail_mean:>9.4f} {r.tail_relative_error:>8.4f}"
            )
        lines.append(f"analytic T' = {self.analytic_t_prime:.5f}")
        return "\n".join(lines)


def _fleet_shed_fraction(report) -> tuple[float, int]:
    """Observed shed fraction of one sharded run, plus failover shed.

    Arrivals drawn for a dead shard never reach that shard's estimator
    or counters, so the denominator is the live shards' offered
    arrivals plus the failover-shed count the dispatcher kept.
    """
    dispatcher = report.dispatcher
    arrivals = sum(rt.metrics.counters.arrivals for rt in report.runtimes)
    shed = sum(rt.metrics.counters.shed for rt in report.runtimes)
    denominator = arrivals + dispatcher.failover_shed
    if denominator == 0:
        return 0.0, dispatcher.failover_shed
    return (
        (shed + dispatcher.failover_shed) / denominator,
        dispatcher.failover_shed,
    )


def _failover_latencies(schedule: FaultSchedule, supervisor) -> tuple:
    """``(shard, latency)`` per shard fault whose failover was detected.

    Stalls shorter than the detection window and atomic kill+restores
    legitimately produce no declaration, so not every shard-targeted
    spec yields an entry.
    """
    declared = list(supervisor.failovers)
    out = []
    for spec in schedule.of_kinds(SHARD_FAULT_KINDS):
        target = int(spec.params["shard"])
        for when, shard in declared:
            if shard == target and when >= spec.start:
                out.append((target, float(when - spec.start)))
                break
    return tuple(out)


def run_sharded_chaos(
    group: BladeServerGroup,
    rate: float,
    *,
    seeds: Sequence[int],
    horizon: float,
    config: RuntimeConfig | None = None,
    shard_config=None,
    supervisor_config=None,
    schedule_factory: Callable[[int], FaultSchedule] | None = None,
    settle: float | None = None,
    quiet_tail: float = 0.35,
    max_faults: int = 4,
    recovery_dir: str | None = None,
) -> ShardChaosSuiteReport:
    """Run the fleet chaos acceptance suite and return the audited report.

    One :func:`~repro.shard.runtime.run_sharded_closed_loop` run per
    seed, each under a randomized schedule that combines server health
    faults with shard-targeted faults (``allow_shard_faults=True``) and
    the occasional coordinator solver-fault window, all supervised by a
    :class:`~repro.shard.supervisor.ShardSupervisor`.

    Parameters mirror :func:`run_chaos`; the sharded additions:

    shard_config:
        The :class:`~repro.shard.partition.ShardConfig` each run is
        partitioned by (default: four contiguous shards).
    supervisor_config:
        :class:`~repro.shard.supervisor.ShardSupervisorConfig` tuning
        for the heartbeat detector, retries, and circuit breaker.
    recovery_dir:
        Base directory for the per-seed recovery trees shard crashes
        need (each shard journals under ``seed-N/shard-XX/``).  Defaults
        to a fresh temporary directory; recovery is auto-enabled for
        any seed whose schedule carries a crash-ish shard fault.

    ``allow_cluster_down`` is deliberately not exposed: a whole-cluster
    outage window is a flat-loop scenario, and the fleet detector would
    (correctly) declare every shard dead — a different acceptance
    contract than the failover one this suite audits.
    """
    from ..shard.partition import ShardConfig, partition_group
    from ..shard.runtime import run_sharded_closed_loop

    if shard_config is None:
        shard_config = ShardConfig(shards=4)
    n_shards = partition_group(group, shard_config).n_shards

    def schedule_for(seed: int) -> FaultSchedule:
        return random_fault_schedule(
            group.n,
            horizon,
            seed,
            quiet_tail=quiet_tail,
            max_faults=max_faults,
            allow_cluster_down=False,
            allow_shard_faults=True,
            n_shards=n_shards,
        )

    def audit(out, schedule, plan) -> dict:
        fleet = out.supervisor.metrics
        shed_fraction, failover_shed = _fleet_shed_fraction(out)
        latencies = _failover_latencies(schedule, out.supervisor)
        return {
            "n_shards": n_shards,
            "failovers": fleet.counters.failovers,
            "restores": fleet.counters.restores,
            "failover_latencies": latencies,
            "max_failover_latency": max(
                (lat for _, lat in latencies), default=math.nan
            ),
            "breaker_opens": fleet.counters.breaker_opens,
            "rebalance_failures": fleet.counters.rebalance_failures,
            "shed_fraction_observed": shed_fraction,
            "failover_shed": failover_shed,
            **_incident_fields(fleet.incidents),
            **_restore_fields(out),
        }

    return _run_suite(
        ShardChaosSuiteReport,
        ShardChaosRunRecord,
        group,
        rate,
        seeds=seeds,
        horizon=horizon,
        settle=settle,
        config=config,
        runner=run_sharded_closed_loop,
        schedule_for=schedule_factory if schedule_factory is not None else schedule_for,
        audit=audit,
        needs_recovery=lambda plan: any(
            s.kind != "shard-stall" for s in plan.shard_specs
        ),
        recovery_dir=recovery_dir,
        run_kwargs={
            "shard_config": shard_config,
            "supervisor_config": supervisor_config,
        },
        failed_fields={"n_shards": n_shards},
    )


@dataclass(frozen=True)
class OverloadRunRecord(_RunRecord):
    """Audit of one seeded overload run (burst + retrying clients).

    The tail window follows the burst, and ``analytic_t_prime`` is the
    optimum at the base (fresh-traffic) rate.
    """

    #: Client retries scheduled (timeout duplicates + re-offered sheds).
    retried: int = 0
    #: Client-timeout firings on still-incomplete tasks.
    timeouts: int = 0
    #: Offers dropped after their class's retry budget ran out.
    abandoned: int = 0
    #: Offers presented to the dispatcher, per priority class (whole run,
    #: retries included).
    offered_by_class: tuple = ()
    #: Offers shed at the dispatcher, per priority class (whole run).
    shed_by_class: tuple = ()
    #: Shed fraction of priority class 0 over the whole run.
    class0_shed_fraction: float = 0.0
    #: Brownout state entries per target state (empty without admission).
    brownout_transitions: dict = field(default_factory=dict)


class OverloadSuiteReport(_SuiteReport):
    """Aggregate verdict over every seeded overload run."""

    _summary = (
        "total_retried",
        "total_timeouts",
        "total_abandoned",
        "max_class0_shed_fraction",
    )

    total_retried = _summed("retried", "Client retries summed over all runs.")
    total_timeouts = _summed(
        "timeouts", "Client-timeout duplicates summed over all runs."
    )
    total_abandoned = _summed(
        "abandoned", "Budget-exhausted abandonments summed over all runs."
    )
    max_class0_shed_fraction = _worst(
        "class0_shed_fraction", "Worst priority-0 shed fraction across completed runs."
    )

    def tail_confidence_interval(
        self, confidence: float = 0.99
    ) -> tuple[float, float]:
        """Replication CI over the per-seed post-burst tail means."""
        return super().tail_confidence_interval(confidence)

    def recovered(self, confidence: float = 0.99) -> bool:
        """Whether the analytic base-rate ``T'`` lies inside the CI —
        the run *recovered* from the burst instead of going metastable."""
        return self.reconverged(confidence)

    def render(self) -> str:
        """Human-readable per-seed summary table."""
        lines = [
            f"{'seed':>5} {'ok':>3} {'retry':>7} {'t/o':>7} {'aband':>6} "
            f"{'shed':>6} {'cls0':>6} {'tail T_':>9} {'rel.err':>8}"
        ]
        for r in self.records:
            lines.append(
                f"{r.seed:>5} {'y' if r.completed else 'N':>3} "
                f"{r.retried:>7} {r.timeouts:>7} {r.abandoned:>6} "
                f"{r.shed_fraction_observed:>6.3f} "
                f"{r.class0_shed_fraction:>6.4f} "
                f"{r.tail_mean:>9.4f} {r.tail_relative_error:>8.4f}"
            )
        lines.append(f"analytic T' = {self.analytic_t_prime:.5f}")
        return "\n".join(lines)


def compile_overload_trace(
    rate: float, schedule: FaultSchedule
) -> RateTrace:
    """Compile a schedule's ``burst-overload`` windows into a rate trace.

    Each window multiplies the base ``rate`` by its ``factor`` over
    ``[start, end)``.  Overlapping windows are rejected by
    :class:`~repro.workloads.traces.RateTrace` validation.
    """
    steps: list[tuple[float, float]] = []
    for spec in schedule.of_kinds(("burst-overload",)):
        factor = float(spec.params.get("factor", 2.0))
        steps.append((spec.start, rate * factor))
        steps.append((spec.end, rate))
    if not steps:
        return RateTrace.constant(rate)
    return RateTrace(rate, tuple(sorted(steps)))


def run_overload_chaos(
    group: BladeServerGroup,
    rate: float,
    *,
    seeds: Sequence[int],
    horizon: float,
    workload,
    config: RuntimeConfig | None = None,
    schedule_factory: Callable[[int], FaultSchedule] | None = None,
    burst_at: float | None = None,
    burst_factor: float = 2.0,
    burst_duration: float | None = None,
    retry_storm: bool = False,
    settle: float | None = None,
) -> OverloadSuiteReport:
    """Run the overload-survival suite: burst + retrying clients.

    The scenario behind the metastable-failure demonstration: the
    offered rate bursts past capacity (``burst-overload``), every
    admitted task's sojourn climbs past the clients' timeout, and the
    timed-out clients re-offer duplicates while the originals are still
    in service.  Whether the system *recovers* once the burst ends —
    tail mean back at the analytic base-rate ``T'`` — depends entirely
    on the ``config``/``workload`` pair: blunt shed-to-cap with
    generous retry budgets sustains the overload (metastable); priority
    admission control plus budgeted backoff drains it.

    Parameters
    ----------
    group, rate:
        The cluster and the base (fresh-traffic) generic rate.
    seeds:
        One closed-loop run per seed; the schedule is shared, the
        simulator streams (arrivals, services, class draws, backoff
        jitter) vary per seed.
    horizon:
        Simulated length of each run.
    workload:
        The :class:`~repro.sim.arrivals.ClientWorkload` describing
        class shares and the retry policy — the experiment's client arm.
    config:
        Runtime tuning — the experiment's server arm.  Defaults to the
        supervised alias-router setup with admission *off* (the
        metastable arm); pass ``RuntimeConfig(admission=...)`` for the
        survival arm.
    schedule_factory:
        Optional ``seed -> FaultSchedule`` override; defaults to one
        fixed ``burst-overload`` window (plus an overlapping
        ``retry-storm`` when ``retry_storm`` is set) so every seed sees
        the same demand shape.
    burst_at, burst_factor, burst_duration:
        The default schedule's burst window; ``burst_at`` defaults to
        15% of the horizon and ``burst_duration`` to another 15%.
    retry_storm:
        Add a ``retry-storm`` window covering the burst (backoff
        delays slashed to 10%) to the default schedule.
    settle:
        Time after the last fault window before the recovery tail
        starts; defaults to 30% of the post-fault stretch.
    """
    start = 0.15 * horizon if burst_at is None else burst_at
    end = start + (0.15 * horizon if burst_duration is None else burst_duration)

    def schedule_for(seed: int) -> FaultSchedule:
        specs = [
            FaultSpec(
                kind="burst-overload",
                start=start,
                end=end,
                params={"factor": burst_factor},
            )
        ]
        if retry_storm:
            specs.append(
                FaultSpec(
                    kind="retry-storm",
                    start=start,
                    end=end,
                    params={"backoff_scale": 0.1},
                )
            )
        return FaultSchedule(specs, seed=seed)

    def audit(out, schedule, plan) -> dict:
        sim = out.sim
        offered = tuple(int(v) for v in sim.offered_by_class)
        shed = tuple(int(v) for v in sim.shed_by_class)
        cls0_offered = offered[0] if offered else 0
        metrics = out.metrics
        return {
            "retried": sim.generic_retried,
            "timeouts": sim.generic_timeouts,
            "abandoned": sim.generic_abandoned,
            "offered_by_class": offered,
            "shed_by_class": shed,
            "class0_shed_fraction": shed[0] / cls0_offered if cls0_offered else 0.0,
            "shed_fraction_observed": metrics.shed_fraction_observed,
            "brownout_transitions": dict(metrics.admission.transitions),
            **_incident_fields(metrics.incidents),
        }

    return _run_suite(
        OverloadSuiteReport,
        OverloadRunRecord,
        group,
        rate,
        seeds=seeds,
        horizon=horizon,
        settle=settle,
        config=config,
        schedule_for=schedule_factory if schedule_factory is not None else schedule_for,
        audit=audit,
        trace_for=lambda schedule: compile_overload_trace(rate, schedule),
        run_kwargs={"workload": workload},
    )


def dump_chaos_artifacts(report: ChaosSuiteReport, directory: str) -> list[str]:
    """Write the suite report and per-seed incident logs as JSON files.

    The CI chaos job uploads this directory as a build artifact, so
    the full incident trail ships with the build.  When the process's
    observability context is enabled, the span trace (``trace.jsonl``,
    one JSON record per completed span) and a metrics snapshot
    (``metrics.json``) land beside the incident logs.  Returns the
    written paths.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    # Every artifact goes through the atomic temp+rename helper: a CI
    # job killed mid-dump leaves whole files or no files, never torn
    # JSON the artifact consumers choke on.
    paths.append(
        atomic_write_json(os.path.join(directory, "chaos_report.json"), report.to_dict(), sort_keys=True)
    )
    for record in report.records:
        paths.append(
            atomic_write_json(
                os.path.join(directory, f"incidents_seed_{record.seed}.json"),
                {"seed": record.seed, "incidents": list(record.incidents)},
                sort_keys=True,
            )
        )
    o = get_obs()
    if o.enabled:
        trace_path = os.path.join(directory, "trace.jsonl")
        tmp = os.path.join(directory, f".trace.jsonl.tmp.{os.getpid()}")
        o.tracer.export_jsonl(tmp)
        os.replace(tmp, trace_path)
        paths.append(trace_path)
        paths.append(
            atomic_write_json(
                os.path.join(directory, "metrics.json"), o.registry.to_dict(), sort_keys=True
            )
        )
    return paths
