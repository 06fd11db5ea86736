"""Fleet supervisor: keep the sharded closed loop alive through failures.

PR 3's :class:`~repro.faults.supervisor.ResilienceSupervisor` hardens
*one* dispatcher's solve path.  At fleet scale two new failure surfaces
open above the shards:

* **the coordinator tick** — the periodic global re-solve is a single
  point of failure: one injected (or organic) solver fault would
  propagate out of the control event and kill the whole run;
* **the shards themselves** — a crashed or hung shard dispatcher keeps
  its arrival share forever, silently shedding everything the Bernoulli
  split sends it.

:class:`ShardSupervisor` closes both:

``tick(now)``
    Wraps :meth:`~repro.shard.runtime.ShardedDispatcher.rebalance` with
    bounded retries, simulated-time backoff, and a circuit breaker (the
    :class:`~repro.faults.supervisor.Breaker` the single-dispatcher
    supervisor uses) whose fallback is the *last known good shares* masked to the live
    shards — a failed global solve degrades the fleet to its previous
    split instead of killing the loop.  While the breaker is open,
    ticks skip the solver entirely; after ``breaker_cooldown`` one
    half-open probe decides between closing it and re-opening.

``heartbeat(now)``
    A completion-based failure detector: each sweep snapshots every
    shard's forwarded-completion counter.  A shard whose whole interval
    produced no completions while it held more than ``min_share`` of
    the arrival stream is suspected; ``heartbeat_misses`` consecutive
    silent intervals declare it dead.  Declaration *synchronously*
    zeroes the dead shard's share (renormalizing over the survivors —
    the failover bound holds even if the follow-up solve fails) and
    then runs a guarded masked re-solve over the live shards only.

``kill_shard`` / ``stall_shard`` / ``restore_shard``
    The fault seams the closed-loop harness drives: hard-kill (abandon
    durable state mid-write, optionally corrupting the journal tail),
    hang, and splice-back.  A restore after a detected failover folds
    the shard back into the global split with one more guarded
    re-solve; an atomic kill+restore (the PR 5 crash-equivalence shape)
    leaves the shares untouched so the run stays bit-comparable to an
    unfaulted baseline.

Fleet-level evidence lands in :class:`~repro.runtime.metrics.FleetMetrics`
(counters, incident log, rebalance latency) and — when observability is
on — the ``repro_shard_failovers_total`` / ``repro_shard_restores_total``
counters, the ``repro_shard_degraded`` gauge, and the
``repro_shard_rebalance_seconds`` histogram.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..core.exceptions import ParameterError, ReproError
from ..faults.supervisor import Breaker
from ..obs import ConfigBase, get_obs
from ..runtime.metrics import FleetMetrics
from .runtime import ShardedDispatcher

__all__ = ["ShardSupervisorConfig", "ShardSupervisor"]


@dataclass(frozen=True, kw_only=True)
class ShardSupervisorConfig(ConfigBase):
    """Tuning knobs of the fleet supervisor.

    Keyword-only and frozen; round-trips through ``to_dict()`` /
    ``from_dict()`` like every config in the library.

    Attributes
    ----------
    heartbeat_interval:
        Simulated time between failure-detector sweeps (and the unit of
        the failover bound: a dead shard loses its share at most one
        interval after its last healthy sweep, times
        ``heartbeat_misses``).  Non-positive disables heartbeats.
    heartbeat_misses:
        Consecutive silent intervals before a shard is declared dead.
    min_share:
        Shards at or below this arrival share are exempt from the
        detector — a starved-by-design shard legitimately completes
        nothing, and zeroing it would churn the split for no benefit.
    retries:
        Extra same-tick solve attempts after a primary failure.
    backoff:
        Simulated time after a failed tick during which new ticks skip
        the solver and serve the degraded split.
    breaker_threshold:
        Consecutive failed ticks that open the circuit breaker.
    breaker_cooldown:
        Simulated time the breaker stays open before one half-open
        probe tick is allowed through.
    """

    heartbeat_interval: float = 25.0
    heartbeat_misses: int = 1
    min_share: float = 1e-3
    retries: int = 1
    backoff: float = 30.0
    breaker_threshold: int = 3
    breaker_cooldown: float = 200.0

    def __post_init__(self) -> None:
        if self.heartbeat_misses < 1:
            raise ParameterError(
                f"heartbeat_misses must be >= 1, got {self.heartbeat_misses}"
            )
        if not (0.0 <= self.min_share < 1.0):
            raise ParameterError(
                f"min_share must be in [0, 1), got {self.min_share!r}"
            )
        Breaker.check_config(self)


class ShardSupervisor:
    """Supervises one :class:`~repro.shard.runtime.ShardedDispatcher`.

    Attributes
    ----------
    metrics:
        Fleet-level :class:`~repro.runtime.metrics.FleetMetrics`.
    failovers:
        ``(time, shard_index)`` of every dead declaration, in order.
    restore_log:
        ``(time, shard_index)`` of every splice-back, in order.
    restore_reports:
        :class:`~repro.recovery.resume.RestoreReport` objects handed to
        :meth:`restore_shard`, in splice order.
    """

    def __init__(
        self,
        dispatcher: ShardedDispatcher,
        config: ShardSupervisorConfig = ShardSupervisorConfig(),
    ) -> None:
        self.dispatcher = dispatcher
        self.config = config
        self.metrics = FleetMetrics()
        n = dispatcher.plan.n_shards
        #: The supervisor's belief about shard liveness — lags the
        #: dispatcher's ground truth by detection latency, on purpose:
        #: failover is *observed*, never assumed.
        self._live = np.ones(n, dtype=bool)
        self._last_completions = np.zeros(n, dtype=np.int64)
        self._suspicion = np.zeros(n, dtype=np.int64)
        self._breaker = Breaker(config)
        self._last_good_shares = dispatcher.shares
        self.failovers: list[tuple[float, int]] = []
        self.restore_log: list[tuple[float, int]] = []
        self.restore_reports: list = []
        self._obs = get_obs()

    # -- views -----------------------------------------------------------------------

    @property
    def live(self) -> np.ndarray:
        """The supervisor's current liveness belief (copy)."""
        return self._live.copy()

    @property
    def breaker_open(self) -> bool:
        """Whether the coordinator circuit breaker is currently open."""
        return self._breaker.is_open

    # -- supervised coordinator tick -------------------------------------------------

    def tick(self, now: float) -> bool:
        """One supervised rebalance; returns whether a solve succeeded.

        Decision ladder: breaker open (and cooling) -> skip; inside
        backoff -> skip; otherwise attempt the masked global re-solve
        with up to ``retries`` same-tick retries (a half-open probe
        gets exactly one attempt).  Failure paths always leave the
        fleet on the last known good shares masked to the live shards.
        """
        counters = self.metrics.counters
        counters.rebalance_attempts += 1
        state = self._breaker.admit(now)
        if state in ("open", "blocked"):
            counters.rebalance_skipped += 1
            self._degrade(now)
            return False
        attempts = self._breaker.attempts(state)
        for attempt in range(attempts):
            t0 = time.perf_counter()
            try:
                self.dispatcher.rebalance(now, live=self._live)
            except ReproError as exc:
                self._observe_latency(time.perf_counter() - t0)
                counters.rebalance_failures += 1
                if attempt + 1 < attempts:
                    counters.rebalance_retries += 1
                    continue
                self._on_tick_failure(now, exc)
                return False
            self._observe_latency(time.perf_counter() - t0)
            counters.rebalance_successes += 1
            if self._breaker.succeed():
                self._close_breaker(now)
            self._last_good_shares = self.dispatcher.shares
            return True
        return False  # pragma: no cover - loop always returns

    def _observe_latency(self, seconds: float) -> None:
        self.metrics.rebalance_latency.add(seconds)
        if self._obs.enabled:
            self._obs.registry.histogram(
                "repro_shard_rebalance_seconds",
                "Wall-clock seconds per attempted coordinator re-solve",
                lo=1e-6,
                hi=10.0,
            ).observe(max(seconds, 1e-9))

    def _on_tick_failure(self, now: float, exc: Exception) -> None:
        transition = self._breaker.fail(now)
        self.metrics.incidents.note(
            now,
            "rebalance-failure",
            "warning",
            f"coordinator re-solve failed: {exc}",
            error=str(exc),
            consecutive=self._breaker.consecutive_failures,
        )
        if transition is not None:
            self._open_breaker(now, reopened=transition == "reopened")
        self._degrade(now)

    def _degrade(self, now: float) -> None:
        """Serve the last known good shares, masked to the live shards."""
        shares = np.where(self._live, self._last_good_shares, 0.0)
        self.dispatcher.set_shares(shares)

    def _open_breaker(self, now: float, reopened: bool) -> None:
        # Unlike the resilience supervisor, only closed -> open counts.
        if not reopened:
            self.metrics.counters.breaker_opens += 1
        self.metrics.incidents.note(
            now,
            "coordinator-breaker-open",
            "critical",
            "half-open probe failed; breaker re-opened"
            if reopened
            else "coordinator circuit breaker opened",
            until=float(self._breaker.open_until),
        )

    def _close_breaker(self, now: float) -> None:
        self.metrics.counters.breaker_closes += 1
        self.metrics.incidents.note(
            now,
            "coordinator-breaker-close",
            "info",
            "half-open probe succeeded; breaker closed",
        )

    # -- heartbeat failure detector --------------------------------------------------

    def heartbeat(self, now: float) -> None:
        """One failure-detector sweep over the shard fleet.

        Purely observational: the detector reads only the forwarded-
        completion counters, never the dispatcher's internal liveness —
        a hung process and a killed one look identical from outside,
        which is the point.
        """
        self.metrics.counters.heartbeat_checks += 1
        snapshot = self.dispatcher.completions_by_shard.copy()
        delta = snapshot - self._last_completions
        self._last_completions = snapshot
        shares = self.dispatcher.shares
        for shard in range(self.dispatcher.plan.n_shards):
            if not self._live[shard]:
                continue
            if delta[shard] == 0 and shares[shard] > self.config.min_share:
                self._suspicion[shard] += 1
            else:
                self._suspicion[shard] = 0
            if self._suspicion[shard] >= self.config.heartbeat_misses:
                self._declare_dead(shard, now)

    def _update_degraded(self) -> None:
        self.metrics.degraded = int((~self._live).sum())
        if self._obs.enabled:
            self._obs.registry.gauge(
                "repro_shard_degraded",
                "Shards currently failed over (0 = healthy fleet)",
            ).set(float(self.metrics.degraded))

    def _declare_dead(self, shard: int, now: float) -> None:
        """Fail one shard over: zero its share, re-solve over survivors."""
        self._live[shard] = False
        self._suspicion[shard] = 0
        self.metrics.counters.failovers += 1
        self.failovers.append((now, shard))
        self._update_degraded()
        self.metrics.incidents.note(
            now,
            "shard-dead",
            "critical",
            f"shard {shard} declared dead (missed heartbeats)",
            shard=shard,
            degraded=self.metrics.degraded,
        )
        if self._obs.enabled:
            self._obs.registry.counter(
                "repro_shard_failovers_total",
                "Shards declared dead and failed over by the supervisor",
            ).inc()
        # Share zeroing first, synchronously: the failover bound must
        # hold even when the follow-up solve fails or the breaker is
        # open — the survivors just keep their previous proportions.
        self._degrade(now)
        self._last_good_shares = self.dispatcher.shares
        if not self._live.any():
            self.metrics.incidents.note(
                now,
                "fleet-dark",
                "critical",
                "every shard is dead; shedding all arrivals",
            )
            return
        self.tick(now)

    # -- fault seams (driven by the closed-loop harness) -----------------------------

    def kill_shard(self, shard: int, now: float, corrupt: bool = False) -> None:
        """Hard-kill one shard; optionally tear its journal tail.

        The supervisor's own liveness belief deliberately stays ``True``
        — death is *detected* by the heartbeat sweep, never assumed from
        the injection itself.  ``corrupt`` appends a garbage line to the
        shard's write-ahead journal after the kill, so the restore path
        must exercise the CRC torn-tail truncation (the appended line —
        and only it — is dropped; every flushed record stays trusted).
        """
        runtime = self.dispatcher.runtimes[shard]
        self.dispatcher.kill_shard(shard)
        self.metrics.incidents.note(
            now,
            "shard-journal-corrupt" if corrupt else "shard-crash",
            "critical",
            f"shard {shard} hard-killed"
            + (" with a torn journal tail" if corrupt else ""),
            shard=shard,
        )
        if corrupt:
            from ..recovery.journal import JOURNAL_NAME

            directory = runtime.config.recovery.directory
            path = os.path.join(directory, JOURNAL_NAME)
            if os.path.exists(path):
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("torn!{this is not a journal record\n")

    def stall_shard(self, shard: int, now: float) -> None:
        """Hang one shard: alive, state intact, reading nothing."""
        self.dispatcher.stall_shard(shard)
        self.metrics.incidents.note(
            now, "shard-stall", "warning", f"shard {shard} stalled", shard=shard
        )

    def restore_shard(
        self, shard: int, now: float, runtime=None, report=None
    ) -> None:
        """Splice a shard back into the fleet.

        ``runtime`` replaces the dead control plane (crash recovery);
        ``None`` revives the existing one (stall end).  If the shard had
        been failed over, it is folded back into the global split with
        a guarded re-solve; if death was never declared (atomic
        kill+restore, or a stall shorter than the detector's window)
        the shares are left untouched — that is what keeps the point-
        crash path bit-comparable to an unfaulted baseline.
        """
        self.dispatcher.revive_shard(shard, runtime, now=now)
        # Sync the detector's snapshot so the completions the shard
        # missed while dark are not read as fresh progress or silence.
        self._last_completions[shard] = self.dispatcher.completions_by_shard[shard]
        self._suspicion[shard] = 0
        self.metrics.counters.restores += 1
        self.restore_log.append((now, shard))
        if report is not None:
            self.restore_reports.append(report)
        self.metrics.incidents.note(
            now,
            "shard-restored",
            "info",
            f"shard {shard} spliced back in",
            shard=shard,
            was_failed_over=bool(not self._live[shard]),
            replayed=int(report.replayed_records) if report is not None else 0,
        )
        if self._obs.enabled:
            self._obs.registry.counter(
                "repro_shard_restores_total",
                "Shards spliced back into the fleet after restore/stall-end",
            ).inc()
        if not self._live[shard]:
            self._live[shard] = True
            self._update_degraded()
            self.tick(now)
