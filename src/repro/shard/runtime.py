"""Multi-dispatcher closed loop: one runtime per shard, coordinated.

The flat closed loop (:mod:`repro.runtime.loop`) is one dispatcher that
sees every server.  At fleet scale the control plane is sharded: each
shard runs its *own* :class:`~repro.runtime.loop.LoadDistributionRuntime`
— estimator, drift-triggered controller, router, and (when enabled) its
own write-ahead journal and checkpoint generation under
``<recovery.directory>/shard-XX/`` — over just its members, while the
coordinator periodically re-solves the *global* split
(:func:`repro.shard.coordinator.solve_sharded`) from the shards'
aggregated rate estimates and pushes the result down as

* **shard shares** — the fraction of the arrival stream each shard
  dispatcher owns (Bernoulli splitting keeps every shard's substream
  Poisson, so each inner runtime still operates in the paper's model);
* **multiplier hints** — the converged global multiplier, rescaled to
  each shard's load, primes that shard controller's ``phi_hint``
  (:meth:`~repro.runtime.controller.ResolveController.prime_phi_hint`).
  The multiplier scales as ``1/lambda'``, so shard ``s`` carrying
  ``g_s`` of the fleet's ``lambda'`` gets ``phi * lambda' / g_s`` —
  its own optimal multiplier at ``g_s``.

Set-up solves the fleet once.  At the optimum every loaded server's
marginal cost is the one multiplier ``phi`` (Theorems 1–2), so the
bootstrap solve restricted to shard ``s`` is shard ``s``'s own optimum
at ``g_s`` (:func:`bootstrap_restriction`).  Each shard runtime starts
from that restriction instead of solving its shard again.

The coordinator's own re-solves warm-start too: each rebalance passes
the previous global multiplier rescaled by ``lambda'_prev /
lambda'_new``, the first one the bootstrap solve's.

Between coordinator ticks the shards are fully autonomous: local drift
re-solves, local failures, local shedding — no cross-shard traffic at
all, which is the operational point of the architecture.

Fault tolerance (see :doc:`docs/FLEET_RESILIENCE`): the dispatcher
carries a per-shard liveness mask.  A shard marked dead — hard-killed
(``shard-crash``), hung (``shard-stall``), or failed over by the
:class:`~repro.shard.supervisor.ShardSupervisor` — sheds the arrivals
the Bernoulli split still draws for it, stops receiving completions
(counted, for the heartbeat detector), and queues health signals for
ordered delivery at splice-back.  Passing ``fault_plan`` and/or
``supervisor_config`` to :func:`run_sharded_closed_loop` routes every
coordinator tick through the supervisor and compiles shard-targeted
fault specs into engine control events.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..core.exceptions import ParameterError
from ..core.response import Discipline
from ..core.result import LoadDistributionResult
from ..core.server import BladeServerGroup
from ..obs import get_obs
from ..runtime.estimator import RateEstimator
from ..runtime.loop import LoadDistributionRuntime, RuntimeConfig, _backoff_action
from ..sim.arrivals import TracedPoissonArrivals
from ..sim.engine import GroupSimulation, SimulationConfig, SimulationResult
from ..sim.task import SimTask
from ..workloads.traces import RateTrace
from .coordinator import solve_sharded
from .partition import Shard, ShardConfig, ShardPlan, partition_group

__all__ = [
    "bootstrap_restriction",
    "shard_seeds",
    "ShardedDispatcher",
    "ShardedRuntimeReport",
    "run_sharded_closed_loop",
]


def shard_seeds(base_seed: int, n_shards: int) -> tuple[int, ...]:
    """Independent per-shard runtime seeds derived from ``base_seed``.

    Spawned through :class:`numpy.random.SeedSequence`, so the per-shard
    streams are statistically independent *across shards and across
    base seeds* — unlike the earlier affine ``base + 7919 * (s + 1)``
    rule, where base seeds 7919 apart produced shard runtimes sharing a
    seed (shard ``s`` of base ``b`` collided with shard ``s - 1`` of
    base ``b + 7919``).
    """
    if n_shards < 1:
        raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
    children = np.random.SeedSequence(int(base_seed)).spawn(n_shards)
    return tuple(int(c.generate_state(1, dtype=np.uint64)[0]) for c in children)


def bootstrap_restriction(
    bootstrap: LoadDistributionResult, shard: Shard, total_rate: float
) -> LoadDistributionResult | None:
    """The fleet optimum restricted to one shard, as that shard's optimum.

    ``bootstrap`` is the fleet solve at ``total_rate``.  Its KKT
    conditions (every loaded server's marginal cost equals ``phi``,
    every parked one's is at least ``phi``) restricted to ``shard`` are
    the shard's own KKT conditions at ``g_s``, the load the bootstrap
    gives the shard.  The marginals carry a factor ``1/lambda'``, so the
    shard's multiplier is ``phi * total_rate / g_s``.  ``T'``, the
    utilizations and ``T'_i`` are the shard group's at those rates.
    Returns ``None`` for a shard the bootstrap left idle.
    """
    rates = bootstrap.generic_rates[np.asarray(shard.members)]
    load = float(rates.sum())
    if load <= 0.0:
        return None
    phi = bootstrap.phi * total_rate / load
    return LoadDistributionResult.from_rates(
        shard.group, rates, phi, bootstrap.discipline, bootstrap.method
    )


def _shard_runtime_config(
    config: RuntimeConfig, shard_index: int, shard_seed: int
) -> RuntimeConfig:
    """Derive shard ``shard_index``'s runtime config from the base one.

    Each dispatcher gets an independent random seed (see
    :func:`shard_seeds`) and — when durability is on — its own recovery
    directory, so journals and checkpoint generations never interleave
    across shards.
    """
    recovery = config.recovery
    if recovery.enabled:
        recovery = replace(
            recovery,
            directory=os.path.join(
                recovery.directory, f"shard-{shard_index:02d}"
            ),
        )
    return replace(config, seed=int(shard_seed), recovery=recovery)


class _FleetRateView(RateEstimator):
    """The coordinator's offered-rate reading as a rate-estimator.

    ``estimate`` aggregates the *live* shard estimators; ``observe`` is
    a no-op (arrivals are observed by the owning shard runtime, not at
    fleet scope).  Exists so :meth:`FaultPlan.wrap_estimator` can
    decorate the coordinator's view with bias/noise windows the same
    way it decorates the flat runtime's estimator; dropout windows are
    inert at this scope.  The dispatcher owns its view, so the view
    refers back to it weakly: a finished run is freed by reference
    counting alone.
    """

    def __init__(self, dispatcher: "ShardedDispatcher") -> None:
        self._dispatcher = weakref.ref(dispatcher)

    def observe(self, now: float) -> None:  # pragma: no cover - trivial
        pass

    def estimate(self, now: float) -> float:
        return self._dispatcher()._raw_offered_rate(now)

    def reset(self, now: float = 0.0) -> None:  # pragma: no cover - trivial
        pass

    def state_dict(self) -> dict:
        return {"kind": "fleet-view"}

    def load_state(self, state: dict) -> None:  # pragma: no cover - trivial
        pass


def _default_coordinator_solve(group, total_rate, discipline, method="sharded", **kwargs):
    """Adapter giving :func:`solve_sharded` the 4-arg solver seam shape.

    :meth:`FaultPlan.wrap_solver` (and hence the chaos harness) expects
    ``solve_fn(group, rate, discipline, method=..., **kwargs)``; the
    coordinator always solves with the sharded method, so ``method`` is
    accepted for scoping (fault specs can target ``("sharded",)``) and
    then dropped.
    """
    return solve_sharded(group, total_rate, discipline, **kwargs)


class ShardedDispatcher:
    """Engine-facing composite of per-shard dispatchers.

    Implements the same protocol as a single
    :class:`~repro.runtime.loop.LoadDistributionRuntime` — the
    ``observe_arrival`` / ``route`` / ``observe_completion`` hook trio —
    by Bernoulli-splitting the arrival stream across shards (per the
    coordinator's shares) and delegating everything else to the owning
    shard's runtime.  ``observe_arrival`` runs *before* ``route`` on
    every generic arrival (the engine guarantees the ordering), so the
    shard drawn there is the one ``route`` delegates to.

    Parameters
    ----------
    plan, runtimes, shares, rng:
        Topology, one runtime per shard, initial arrival fractions, and
        the Bernoulli-split generator.
    psi:
        ``phi * lambda'`` of the solve that produced ``shares`` (the
        bootstrap); the first rebalance starts from it, rescaled to its
        own rate.
    solve_fn:
        Optional replacement for the coordinator solve seam, with the
        signature ``(group, rate, discipline, method=..., **kwargs)``
        (see :func:`_default_coordinator_solve`).  The fault harness
        installs :meth:`FaultPlan.wrap_solver` here so coordinator
        solver faults hit global rebalances without touching per-shard
        controllers.
    """

    def __init__(
        self,
        plan: ShardPlan,
        runtimes: Sequence[LoadDistributionRuntime],
        shares: np.ndarray,
        rng: np.random.Generator,
        psi: float,
        solve_fn=None,
    ) -> None:
        if len(runtimes) != plan.n_shards:
            raise ParameterError(
                f"need one runtime per shard: {plan.n_shards} shards, "
                f"{len(runtimes)} runtimes"
            )
        self.plan = plan
        #: Mutable on purpose: a crash-restored runtime is spliced in
        #: via :meth:`revive_shard` while the engine keeps running.
        self.runtimes = list(runtimes)
        self._members = [np.asarray(s.members) for s in plan.shards]
        self._owner = plan.assignment
        self._local_of = np.zeros(plan.group.n, dtype=np.int64)
        for members in self._members:
            self._local_of[members] = np.arange(members.size)
        self._rng = rng
        self._solve = solve_fn if solve_fn is not None else _default_coordinator_solve
        self._pending = 0
        #: The last solve's multiplier times the rate it was solved at.
        self._psi = float(psi)
        self.rebalances = 0
        #: Per-shard liveness: ``False`` while a shard is killed,
        #: stalled, or awaiting splice-back.
        self._live = np.ones(plan.n_shards, dtype=bool)
        #: Completions forwarded per shard — the heartbeat signal the
        #: supervisor's failure detector snapshots.
        self.completions_by_shard = np.zeros(plan.n_shards, dtype=np.int64)
        #: Completions for non-live shards, dropped (process is gone).
        self.dropped_completions = 0
        #: Arrivals the split drew for a non-live shard, shed at route.
        self.failover_shed = 0
        #: Arrivals re-admitted to a live shard after drawing a dead one
        #: (admission-enabled fleets only; see :meth:`route_offer`).
        self.readmitted = 0
        # Health signals aimed at a non-live shard queue here, as
        # (kind, local_index, time) in arrival order, re-delivered at
        # splice-back — the restored runtime must not miss a server
        # state transition that happened while it was dark.
        self._pending_signals: list[list[tuple[str, int]]] = [
            [] for _ in range(plan.n_shards)
        ]
        self._rate_view: RateEstimator = _FleetRateView(self)
        self.set_shares(shares)

    # -- coordinator-facing ----------------------------------------------------------

    @property
    def shares(self) -> np.ndarray:
        """Current per-shard fractions of the arrival stream."""
        return self._shares.copy()

    @property
    def live_shards(self) -> np.ndarray:
        """Boolean per-shard liveness mask (copy)."""
        return self._live.copy()

    def shard_live(self, shard_index: int) -> bool:
        """Whether shard ``shard_index`` is currently live."""
        return bool(self._live[shard_index])

    def set_shares(self, shares: np.ndarray) -> None:
        """Adopt new per-shard arrival fractions (renormalized)."""
        shares = np.asarray(shares, dtype=float)
        if shares.shape != (self.plan.n_shards,) or not (
            np.isfinite(shares).all() and (shares >= 0.0).all()
        ):
            raise ParameterError("shares must be finite, non-negative, one per shard")
        total = float(shares.sum())
        if total <= 0.0:
            shares = np.full(self.plan.n_shards, 1.0 / self.plan.n_shards)
            total = 1.0
            self._shares = shares
        else:
            self._shares = shares / total
        self._cum = np.cumsum(self._shares)
        self._cum[-1] = 1.0

    def _raw_offered_rate(self, now: float) -> float:
        """Live shards' aggregate offered estimate (un-faulted)."""
        total = sum(
            runtime.offered_estimate(now)
            for runtime, alive in zip(self.runtimes, self._live)
            if alive
        )
        return max(float(total), 1e-12)

    def offered_rate(self, now: float) -> float:
        """Aggregate offered generic rate across live shard estimators.

        Read through the fleet rate view so an installed estimator
        fault window (bias/noise) distorts what the coordinator sees.
        """
        return self._rate_view.estimate(now)

    def rebalance(self, now: float, live: np.ndarray | None = None) -> None:
        """One coordinator tick: global re-solve, push shares and hints.

        Runs the sharded solve on the full group at the shards'
        aggregated rate estimate (warm-started from the previous solve's
        multiplier, rescaled to the new rate), adopts the resulting
        shard load shares for arrival splitting, and primes every live,
        loaded shard controller's ``phi_hint`` with the converged global
        multiplier rescaled to the shard's load, ``phi * lambda' / g_s``.

        ``live`` masks the solve to the surviving shards (the
        supervisor's failover view): dead shards contribute no
        candidates and get zero share, and the target rate is clamped
        to the live fleet's capped capacity so the degraded program
        stays feasible.
        """
        group = self.plan.group
        live_mask = None if live is None else np.asarray(live, dtype=bool)
        capacity = self.plan.live_capacity(live_mask)
        lam = min(
            self.offered_rate(now),
            self.runtimes[0].health.utilization_cap * capacity,
        )
        # The marginals carry a factor 1/lambda' (g_i = (T'_i + rho'_i
        # dT'_i/drho) / lambda'), so psi = phi * lambda' is what stays
        # put across a rate change.  An out-of-band hint falls back to
        # the cold seed; a zero rate (every shard dead) goes to the
        # solve unhinted, which rejects it.
        hint = self._psi / lam if lam > 0.0 else None
        result = self._solve(
            group,
            lam,
            self.runtimes[0].config.discipline,
            method="sharded",
            phi_hint=hint,
            plan=self.plan,
            live=live_mask,
        )
        self._psi = result.phi * lam
        loads = np.asarray(result.metadata["shard_loads"], dtype=float)
        self.set_shares(loads)
        for shard_index, runtime in enumerate(self.runtimes):
            if not self._live[shard_index] or loads[shard_index] == 0.0:
                continue
            if live_mask is not None and not live_mask[shard_index]:
                continue
            runtime.controller.prime_phi_hint(result.phi * lam / loads[shard_index])
        self.rebalances += 1
        o = get_obs()
        if o.enabled:
            o.registry.counter(
                "repro_shard_rebalances_total",
                "Coordinator global re-solves pushed to shard dispatchers",
            ).inc()

    # -- failure seams (driven by the shard supervisor) ------------------------------

    def kill_shard(self, shard_index: int) -> None:
        """Hard-kill one shard's control plane (``shard-crash``).

        Models a process kill faithfully: the durable state is
        abandoned exactly as the flushed appends left it (no farewell
        checkpoint), the shard stops taking arrivals/completions, and
        the dead runtime object is kept only so a restore can read its
        derived config.
        """
        runtime = self.runtimes[shard_index]
        if runtime._recovery is not None:
            runtime._recovery.abandon()
        self._live[shard_index] = False

    def stall_shard(self, shard_index: int) -> None:
        """Hang one shard (``shard-stall``): alive, but reading nothing."""
        self._live[shard_index] = False

    def revive_shard(
        self,
        shard_index: int,
        runtime: LoadDistributionRuntime | None = None,
        *,
        now: float | None = None,
    ) -> None:
        """Splice a shard back in — optionally with a restored runtime.

        Health signals that arrived while the shard was dark are
        re-delivered in order (a stalled process drains its queue on
        wake-up; a restored one must learn the current server states),
        stamped at the splice time ``now`` — the shard learns late,
        which is exactly the detection latency a hung process pays.
        """
        if runtime is not None:
            self.runtimes[shard_index] = runtime
        self._live[shard_index] = True
        pending, self._pending_signals[shard_index] = (
            self._pending_signals[shard_index],
            [],
        )
        target = self.runtimes[shard_index]
        for kind, local, when in pending:
            at = when if now is None else max(now, when)
            if kind == "down":
                target.server_down(local, at)
            else:
                target.server_up(local, at)

    def server_down(self, index: int, now: float) -> None:
        """Global-index health signal, forwarded to the owning shard."""
        self._deliver_health("down", index, now)

    def server_up(self, index: int, now: float) -> None:
        """Global-index health signal, forwarded to the owning shard."""
        self._deliver_health("up", index, now)

    def _deliver_health(self, kind: str, index: int, now: float) -> None:
        shard = int(self._owner[index])
        local = int(self._local_of[index])
        if self._live[shard]:
            if kind == "down":
                self.runtimes[shard].server_down(local, now)
            else:
                self.runtimes[shard].server_up(local, now)
        else:
            self._pending_signals[shard].append((kind, local, now))

    # -- engine-facing hook trio -----------------------------------------------------

    def observe_arrival(self, now: float) -> None:
        """Draw the owning shard, then feed that shard's estimator."""
        self._pending = int(
            np.searchsorted(self._cum, self._rng.random(), side="right")
        )
        if self._live[self._pending]:
            self.runtimes[self._pending].observe_arrival(now)

    def route(self) -> int:
        """Delegate to the pending shard; map its pick to global index."""
        shard = self._pending
        if not self._live[shard]:
            # The split still points at a dead/stalled shard (failover
            # has not re-solved yet, or the share is too small to
            # bother): the task is shed, and counted so the chaos
            # harness can bound shed during failover.
            self.failover_shed += 1
            return -1
        local = self.runtimes[shard].route()
        if local < 0:
            return -1
        return int(self._members[shard][local])

    def route_offer(self, offer) -> int:
        """Offer-aware delegate: the admission class/attempt travel
        through to the owning shard's controller.

        Unlike :meth:`route`, a draw that lands on a dead shard is
        *re-admitted*: when the fleet runs admission control the offer
        is re-drawn once among the live shards (shares renormalized),
        so a failed-over shard degrades into extra load on the
        survivors — where the admission layer decides — instead of a
        blanket shed.  Without admission the legacy shed-at-failover
        behaviour stays pinned.
        """
        shard = self._pending
        if not self._live[shard]:
            shard = self._readmit_shard()
            if shard < 0:
                self.failover_shed += 1
                return -1
        local = self.runtimes[shard].route_offer(offer)
        if local < 0:
            return -1
        return int(self._members[shard][local])

    def _readmit_shard(self) -> int:
        """One renormalized re-draw among live shards (admission only)."""
        if self.runtimes[self._pending]._admission is None or not self._live.any():
            return -1
        weights = np.where(self._live, self._shares, 0.0)
        total = float(weights.sum())
        if total <= 0.0:
            weights = self._live.astype(float)
            total = float(weights.sum())
        cum = np.cumsum(weights / total)
        cum[-1] = 1.0
        shard = int(np.searchsorted(cum, self._rng.random(), side="right"))
        self.readmitted += 1
        return shard

    def observe_completion(self, task: SimTask, now: float) -> None:
        """Forward the completion to the runtime owning the server.

        The task carries the *global* server index; the owning runtime
        keeps its queue state (and any state-aware routing policy) in
        *local* index space, so the completion is re-mapped through
        ``_local_of``.  Completions for dead shards are dropped — the
        restored runtime's in-flight counts come from its checkpoint +
        journal, and the policies tolerate the resulting stale counts
        (clamped decrements, validated idle-stack pops).
        """
        shard = int(self._owner[task.server_index])
        if self._live[shard]:
            self.runtimes[shard].observe_completion(
                task, now, server_index=int(self._local_of[task.server_index])
            )
            self.completions_by_shard[shard] += 1
        else:
            self.dropped_completions += 1

    # -- views -----------------------------------------------------------------------

    def current_weights(self) -> np.ndarray:
        """Full-group routing fractions implied by shares × inner splits."""
        per_shard = [
            share * runtime.current_weights
            for share, runtime in zip(self._shares, self.runtimes)
        ]
        return self.plan.expand(per_shard)


@dataclass(frozen=True)
class ShardedRuntimeReport:
    """Output of one multi-dispatcher closed-loop run."""

    #: Post-warmup simulation statistics.
    sim: SimulationResult
    #: The partition the run was sharded by.
    plan: ShardPlan
    #: The composite dispatcher (shares, rebalance count, inner runtimes).
    dispatcher: ShardedDispatcher
    #: The arrival trace the run was driven with.
    trace: RateTrace
    #: Coordinator ticks performed (excluding the bootstrap solve).
    rebalances: int
    #: Final per-shard arrival shares.
    shard_shares: tuple[float, ...]
    #: Per-shard recovery directories (empty when durability is off).
    recovery_dirs: tuple[str, ...] = field(default=())
    #: The shard supervisor, when the run was supervised (fleet
    #: metrics, failover/restore timelines); ``None`` otherwise.
    supervisor: object | None = None
    #: Per-splice :class:`~repro.recovery.resume.RestoreReport` objects
    #: from mid-run shard crash recoveries, in splice order.
    restores: tuple = ()

    @property
    def runtimes(self) -> tuple[LoadDistributionRuntime, ...]:
        """The per-shard runtimes, with final health/metrics state."""
        return tuple(self.dispatcher.runtimes)


def run_sharded_closed_loop(
    group: BladeServerGroup,
    trace: RateTrace,
    config: RuntimeConfig = RuntimeConfig(),
    shard_config: ShardConfig = ShardConfig(),
    *,
    horizon: float,
    warmup: float = 0.0,
    seed: int | None = 0,
    rebalance_period: float | None = None,
    collect_tasks: bool = True,
    fault_plan=None,
    supervisor_config=None,
    workload=None,
) -> ShardedRuntimeReport:
    """Drive ``n_shards`` concurrent shard dispatchers, closed loop.

    Partitions ``group`` per ``shard_config``, bootstraps the global
    split with one hierarchical solve at ``trace.initial_rate``, then
    runs one :class:`~repro.runtime.loop.LoadDistributionRuntime` per
    shard, each starting from the bootstrap restricted to its shard
    (:func:`bootstrap_restriction`; a shard the bootstrap left idle
    solves its own first split), against the discrete-event engine,
    with the coordinator
    re-solving globally every ``rebalance_period`` of simulated time
    (default: the runtime's ``resolve_period`` when finite, else a
    tenth of the horizon).

    When ``config.recovery.enabled``, each shard journals and
    checkpoints under ``<recovery.directory>/shard-XX/`` — concurrent
    generations that never share files, finalized at run end.

    Passing ``fault_plan`` and/or ``supervisor_config`` supervises the
    run (see :class:`~repro.shard.supervisor.ShardSupervisor`):
    coordinator ticks gain retry/backoff/circuit-breaker protection, a
    heartbeat failure detector sweeps the shard fleet, and the plan's
    shard-targeted fault specs (``shard-crash`` / ``shard-stall`` /
    ``shard-journal-corrupt``) compile into engine control events —
    kills, stalls, and mid-run crash recoveries spliced back into the
    running engine.  Solver fault windows wrap the *coordinator* solve
    seam (scope them to ``methods=("sharded",)``), estimator windows
    the coordinator's aggregate rate view, and health windows are
    delivered to the owning shard through the dispatcher.  Plain
    ``crash`` specs are rejected: at fleet scale the control plane has
    no single process to kill — use ``shard-crash``.

    Passing a :class:`~repro.sim.arrivals.ClientWorkload` stamps every
    arrival with a priority class and routes it through
    :meth:`ShardedDispatcher.route_offer`, so per-shard admission
    controllers (``config.admission``) see the fleet's offered load
    split by shard shares, and offers bound for a dead shard are
    re-admitted to the live survivors instead of blanket-shed.

    Returns a :class:`ShardedRuntimeReport`; the per-shard runtimes
    (metrics, resolve logs, recovery state) ride along on the
    dispatcher, fleet-level metrics on ``report.supervisor``.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ParameterError(f"horizon must be finite and > 0, got {horizon}")
    plan = partition_group(group, shard_config)

    shard_fault_specs = ()
    if fault_plan is not None:
        if fault_plan.crash_specs:
            raise ParameterError(
                "whole-control-plane 'crash' faults are undefined for the "
                "sharded loop (there is no single process to kill); use "
                "'shard-crash' with a target shard index"
            )
        shard_fault_specs = fault_plan.shard_specs
        for spec in shard_fault_specs:
            if int(spec.params["shard"]) >= plan.n_shards:
                raise ParameterError(
                    f"{spec.kind!r} targets shard {spec.params['shard']}, "
                    f"plan has {plan.n_shards}"
                )
        needs_recovery = [
            s for s in shard_fault_specs if s.kind != "shard-stall"
        ]
        if needs_recovery and not config.recovery.enabled:
            raise ParameterError(
                "shard-crash / shard-journal-corrupt faults require "
                "RuntimeConfig.recovery.enabled (there is nothing to "
                "restore the shard from otherwise)"
            )

    bootstrap = solve_sharded(group, trace.initial_rate, config.discipline, plan=plan)
    loads = np.asarray(bootstrap.metadata["shard_loads"], dtype=float)

    seeds = shard_seeds(config.seed, plan.n_shards)
    runtimes = []
    shard_configs = []
    initial_rates = []
    restrictions = []
    recovery_dirs = []
    for shard in plan.shards:
        shard_cfg = _shard_runtime_config(config, shard.index, seeds[shard.index])
        shard_configs.append(shard_cfg)
        if shard_cfg.recovery.enabled:
            recovery_dirs.append(shard_cfg.recovery.directory)
        restriction = bootstrap_restriction(bootstrap, shard, trace.initial_rate)
        # A shard the bootstrap split left idle still needs a positive
        # design rate to seed its estimator prior; with no seed its grid
        # stays plain and its first local solve sits at one step.
        if restriction is not None:
            initial = restriction.total_rate
        else:
            initial = 1e-9 * shard.capacity
        initial_rates.append(initial)
        restrictions.append(restriction)
        runtimes.append(
            LoadDistributionRuntime(
                shard.group, initial, shard_cfg, initial_result=restriction
            )
        )

    solve_fn = None
    if fault_plan is not None:
        solve_fn = fault_plan.wrap_solver(_default_coordinator_solve)
    dispatcher = ShardedDispatcher(
        plan,
        runtimes,
        loads,
        np.random.default_rng(
            np.random.SeedSequence([0x5AD, config.seed]).generate_state(1)[0]
        ),
        bootstrap.phi * trace.initial_rate,
        solve_fn=solve_fn,
    )
    if fault_plan is not None:
        dispatcher._rate_view = fault_plan.wrap_estimator(dispatcher._rate_view)

    supervisor = None
    supervised = fault_plan is not None or supervisor_config is not None
    if supervised:
        # Imported lazily, same reason as the flat loop's supervisor:
        # repro.faults imports runtime modules and would cycle.
        from .supervisor import ShardSupervisor, ShardSupervisorConfig

        supervisor = ShardSupervisor(
            dispatcher,
            supervisor_config
            if supervisor_config is not None
            else ShardSupervisorConfig(),
        )

    if rebalance_period is None:
        rebalance_period = (
            config.resolve_period
            if np.isfinite(config.resolve_period)
            else horizon / 10.0
        )
    controls = []
    if rebalance_period > 0.0 and np.isfinite(rebalance_period):
        tick = rebalance_period
        while tick < horizon:
            if supervisor is not None:
                controls.append((tick, _supervised_rebalance_action(supervisor)))
            else:
                controls.append((tick, _rebalance_action(dispatcher)))
            tick += rebalance_period

    if supervisor is not None:
        beat = supervisor.config.heartbeat_interval
        if beat > 0.0 and np.isfinite(beat):
            t = beat
            while t < horizon:
                controls.append((t, _heartbeat_action(supervisor)))
                t += beat

    if fault_plan is not None:
        controls.extend(fault_plan.health_controls(dispatcher, horizon))
        for spec in shard_fault_specs:
            shard_index = int(spec.params["shard"])
            shard = plan.shards[shard_index]
            if spec.kind == "shard-stall":
                controls.append((spec.start, _stall_action(supervisor, shard_index)))
                if spec.end < horizon:
                    controls.append(
                        (spec.end, _stall_end_action(supervisor, shard_index))
                    )
                continue
            corrupt = spec.kind == "shard-journal-corrupt"
            restore_at = spec.start + float(spec.params.get("restore_delay", 0.0))
            if restore_at <= spec.start:
                # Atomic kill + restore inside one control event: the
                # PR 5 crash-equivalence shape, now at shard scope.
                controls.append(
                    (
                        spec.start,
                        _crash_restore_action(
                            supervisor,
                            shard,
                            shard_configs[shard_index],
                            initial_rates[shard_index],
                            restrictions[shard_index],
                            corrupt=corrupt,
                        ),
                    )
                )
            else:
                controls.append(
                    (spec.start, _kill_action(supervisor, shard_index, corrupt))
                )
                if restore_at < horizon:
                    controls.append(
                        (
                            restore_at,
                            _restore_action(
                                supervisor,
                                shard,
                                shard_configs[shard_index],
                                initial_rates[shard_index],
                                restrictions[shard_index],
                            ),
                        )
                    )
        # Same compilation the flat loop applies: a retry-storm window
        # slashes client backoff for its duration; burst-overload specs
        # are encoded in the trace by the overload chaos harness.
        for spec in fault_plan.overload_specs:
            if spec.kind != "retry-storm":
                continue
            scale = float(spec.params.get("backoff_scale", 0.1))
            controls.append((spec.start, _backoff_action(scale)))
            if spec.end < horizon:
                controls.append((spec.end, _backoff_action(1.0)))

    sim_config = SimulationConfig(
        total_generic_rate=trace.initial_rate,
        fractions=dispatcher.current_weights(),
        discipline=Discipline.coerce(config.discipline),
        horizon=horizon,
        warmup=warmup,
        seed=seed,
    )
    sim = GroupSimulation(
        group,
        sim_config,
        dispatcher=dispatcher,
        arrivals=TracedPoissonArrivals(trace),
        arrival_listener=dispatcher.observe_arrival,
        completion_listener=dispatcher.observe_completion,
        controls=controls,
        collect_tasks=collect_tasks,
        workload=workload,
    )
    if fault_plan is not None:
        # The flat loop binds the plan's clock inside the runtime
        # constructor; at fleet scale no single shard runtime owns the
        # plan, so the harness binds it to the engine clock directly.
        fault_plan.bind_clock(lambda: sim.now)
    result = sim.run()
    for runtime in dispatcher.runtimes:
        if runtime._recovery is not None:
            runtime._recovery.finalize()
    return ShardedRuntimeReport(
        sim=result,
        plan=plan,
        dispatcher=dispatcher,
        trace=trace,
        rebalances=dispatcher.rebalances,
        shard_shares=tuple(float(s) for s in dispatcher.shares),
        recovery_dirs=tuple(recovery_dirs),
        supervisor=supervisor,
        restores=tuple(supervisor.restore_reports) if supervisor is not None else (),
    )


def _rebalance_action(dispatcher: ShardedDispatcher):
    def action(sim, now: float) -> None:
        dispatcher.rebalance(now)

    return action


def _supervised_rebalance_action(supervisor):
    def action(sim, now: float) -> None:
        supervisor.tick(now)

    return action


def _heartbeat_action(supervisor):
    def action(sim, now: float) -> None:
        supervisor.heartbeat(now)

    return action


def _stall_action(supervisor, shard_index: int):
    def action(sim, now: float) -> None:
        supervisor.stall_shard(shard_index, now)

    return action


def _stall_end_action(supervisor, shard_index: int):
    def action(sim, now: float) -> None:
        supervisor.restore_shard(shard_index, now)

    return action


def _kill_action(supervisor, shard_index: int, corrupt: bool):
    def action(sim, now: float) -> None:
        supervisor.kill_shard(shard_index, now, corrupt=corrupt)

    return action


def _restore_action(supervisor, shard, shard_cfg, initial_rate: float, seed):
    """Rebuild one shard's control plane from its own durable state."""

    def action(sim, now: float) -> None:
        from ..recovery.resume import restore_runtime

        runtime, report = restore_runtime(
            shard.group, shard_cfg, initial_rate=initial_rate, initial_result=seed
        )
        supervisor.restore_shard(shard.index, now, runtime=runtime, report=report)

    return action


def _crash_restore_action(
    supervisor, shard, shard_cfg, initial_rate: float, seed, corrupt: bool
):
    """Kill and immediately restore one shard inside one control event."""

    kill = _kill_action(supervisor, shard.index, corrupt)
    restore = _restore_action(supervisor, shard, shard_cfg, initial_rate, seed)

    def action(sim, now: float) -> None:
        kill(sim, now)
        restore(sim, now)

    return action
