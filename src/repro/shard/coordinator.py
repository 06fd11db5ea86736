"""Outer coordinator: the paper's water-filling over a partitioned fleet.

The flat optimum equalizes the marginal response-time cost
``g_i(lambda'_i) = phi`` across every un-parked, un-pinned server and
picks ``phi`` so the loads meet the budget ``sum_i lambda'_i = lambda'``
(PAPER.md, Theorem 2 / the KKT stationarity of `core/objective.py`).
Partition the fleet into shards and nothing about that fixed point
changes: the multiplier is *shared*, so each shard's load

.. math:: g_s(\\phi) = \\sum_{i \\in s} \\lambda'_i(\\phi)

is just a partial sum of the flat solve's ``F(phi)``.  The coordinator
therefore runs flat Newton's dual ascent
(:func:`repro.core.newton.dual_ascent`) on the live shards' members and
sums the converged rates shard by shard.  Warm starts are one scalar
``phi_hint``: the converged multiplier of the previous solve.

With every shard live the candidate set is the whole fleet, in group
order, and the result is bit-identical to ``solve_newton(group)``; with
a ``live`` mask the coordinator solves the same program restricted to
the surviving shards' servers — the failover re-solve — and matches
``solve_newton`` on that subgroup bit for bit.

:func:`solve_sharded` is not a ``repro.solve`` backend: flat
``method="newton"`` returns the same answer in the same time.  It is
the partition-aware solve the sharded runtime (:mod:`repro.shard.runtime`)
calls directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core.bisection import DEFAULT_TOL
from ..core.exceptions import InfeasibleError, ParameterError
from ..core.newton import dual_ascent, rate_ceilings, threshold_numerators
from ..core.response import Discipline
from ..core.result import LoadDistributionResult
from ..core.server import BladeServerGroup
from ..obs import get_obs
from .partition import ShardPlan, partition_group

__all__ = ["ShardCoordinator", "solve_sharded"]


class _Frame(NamedTuple):
    """The live shards' servers as the dual ascent's input arrays.

    ``cand`` are their global indices, in group order; ``thresholds``
    is :func:`~repro.core.newton.threshold_numerators` over them and
    ``capacity`` their summed rate ceilings.  Nothing here depends on
    the rate, so one frame serves every solve under the same live mask.
    """

    cand: np.ndarray
    ms: np.ndarray
    xbars: np.ndarray
    specials: np.ndarray
    caps: np.ndarray
    thresholds: tuple[np.ndarray, np.ndarray]
    capacity: float


def _frame(cand, ms, xbars, specials, caps, thresholds) -> _Frame:
    """A :class:`_Frame` of these arrays, with their rate ceilings summed."""
    capacity = float(rate_ceilings(caps).sum())
    return _Frame(cand, ms, xbars, specials, caps, thresholds, capacity)


def _candidate_frame(plan: ShardPlan, disc: Discipline, live: np.ndarray) -> _Frame:
    """The frame of ``plan``'s live shards under ``disc``, cached on the plan.

    The whole fleet's frame costs two kernel passes (the thresholds)
    and is built once per plan and discipline; a masked frame is a
    gather from it.  Every kernel output depends only on its own server,
    so the gathered thresholds equal a pass over the candidates bit for
    bit.  Only the latest masked frame is kept: a failover mask holds
    until splice-back, and a plan lives as long as one run.
    """
    frames = plan._frames
    full = frames.get(disc)
    if full is None:
        group = plan.group
        arrays = (group.sizes, group.xbars, group.special_rates, group.spare_capacities)
        full = _frame(
            np.arange(group.n), *arrays, threshold_numerators(*arrays, disc)
        )
        frames[disc] = full
    if live.all():
        return full
    key = (disc, live.tobytes())
    frame = frames.get(key)
    if frame is None:
        for old in [k for k in frames if isinstance(k, tuple)]:
            del frames[old]
        # Failed-over shards contribute no candidates: the masked solve
        # is the same program restricted to the surviving fleet.
        cand = np.flatnonzero(live[plan.assignment])
        g0, gcap = full.thresholds
        frame = _frame(
            cand,
            full.ms[cand],
            full.xbars[cand],
            full.specials[cand],
            full.caps[cand],
            (g0[cand], gcap[cand]),
        )
        frames[key] = frame
    return frame


class ShardCoordinator:
    """One sharded solve: the live candidate frame plus the dual ascent.

    Construction validates the live mask and looks up the live shards'
    frame (their members, in group order, and the rate-free thresholds;
    see :func:`_candidate_frame`); :meth:`solve` runs the dual ascent
    on them (which also validates ``tol``) and scatters the rates back
    into the full group.
    """

    def __init__(
        self,
        plan: ShardPlan,
        total_rate: float,
        discipline: Discipline | str = Discipline.FCFS,
        tol: float = DEFAULT_TOL,
        live: np.ndarray | None = None,
    ) -> None:
        self.plan = plan
        self.group = plan.group
        self.total_rate = float(total_rate)
        self.disc = Discipline.coerce(discipline)
        self.tol = float(tol)
        self.group.check_feasible(self.total_rate)
        if live is None:
            self.live = np.ones(plan.n_shards, dtype=bool)
        else:
            self.live = np.asarray(live, dtype=bool).copy()
            if self.live.shape != (plan.n_shards,):
                raise ParameterError(
                    f"live mask has shape {self.live.shape}, "
                    f"expected ({plan.n_shards},)"
                )
            if not self.live.any():
                raise InfeasibleError("every shard is masked dead")

        self.frame = _candidate_frame(plan, self.disc, self.live)
        if self.frame.capacity <= self.total_rate:
            # The full group passed check_feasible above, so this only
            # fires when the live mask removed too much capacity — the
            # caller must shed first.
            raise InfeasibleError(
                f"candidate capacity {self.frame.capacity:.6g} cannot "
                f"carry total rate {self.total_rate:.6g} "
                f"({int(self.live.sum())}/{plan.n_shards} shards live)"
            )

    def solve(self, phi_hint: float | None = None) -> LoadDistributionResult:
        """Run the dual ascent and assemble the full-group result.

        ``phi_hint`` is ``None`` (cold start) or the shared multiplier
        of an earlier solve; an out-of-band or non-finite hint falls
        back to the cold start, as in :func:`~repro.core.newton.solve_newton`.
        """
        frame = self.frame
        rates, phi, iterations, inner_sweeps = dual_ascent(
            frame.ms,
            frame.xbars,
            frame.specials,
            frame.caps,
            self.total_rate,
            self.disc,
            self.tol,
            phi_hint,
            frame.thresholds,
        )
        # Dead shards' servers carry exactly zero.
        group = self.group
        full_rates = np.zeros(group.n)
        full_rates[frame.cand] = rates
        loads = np.bincount(
            self.plan.assignment, weights=full_rates, minlength=self.plan.n_shards
        )
        return LoadDistributionResult.from_rates(
            group, full_rates, phi, self.disc, "sharded-hierarchical",
            iterations=iterations,
            metadata={
                "shards": self.plan.n_shards,
                "strategy": self.plan.config.strategy,
                "candidates": int(frame.cand.size),
                "shard_loads": [float(x) for x in loads],
                "live_shards": [bool(x) for x in self.live],
                "inner_sweeps": int(inner_sweeps),
            },
        )


def solve_sharded(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
    tol: float = DEFAULT_TOL,
    phi_hint: float | None = None,
    *,
    plan: ShardPlan | None = None,
    live: np.ndarray | None = None,
) -> LoadDistributionResult:
    """Sharded solve over a partition of ``group``.

    ``plan`` names the partition (``partition_group(group, config)``;
    ``None`` means ``partition_group(group)``) and must have been built
    for ``group``.  The live shards' members are solved by flat
    Newton's dual ascent, so with every shard live the rates, ``phi``
    and iteration count equal ``solve_newton(group)`` exactly; the
    metadata adds the per-shard loads.

    ``phi_hint`` is an optional scalar warm start, typically the
    previous solve's ``result.phi``.

    ``live`` is an optional per-shard boolean mask: dead shards
    contribute no candidates and receive zero load — the failover
    re-solve the shard supervisor runs when a dispatcher drops out.
    The masked program must still be feasible (the live shards' capped
    capacity must exceed ``total_rate``), else
    :class:`~repro.core.exceptions.InfeasibleError` is raised.
    """
    if plan is None:
        plan = partition_group(group)
    elif plan.group is not group:
        raise ParameterError("plan was built for a different group")
    coordinator = ShardCoordinator(plan, total_rate, discipline, tol, live=live)
    o = get_obs()
    if not o.enabled:
        return coordinator.solve(phi_hint)
    with o.tracer.span(
        "shard.coordinate",
        n=group.n,
        shards=plan.n_shards,
        strategy=plan.config.strategy,
        candidates=int(coordinator.frame.cand.size),
    ) as span:
        result = coordinator.solve(phi_hint)
        span.note(
            iterations=result.iterations,
            inner_sweeps=result.metadata["inner_sweeps"],
            t_prime=result.mean_response_time,
        )
    fam = o.registry.histogram(
        "repro_shard_load_share",
        "Converged per-shard share of the total generic load",
        lo=1e-4,
        hi=1.0,
    )
    total = max(float(sum(result.metadata["shard_loads"])), 1e-300)
    for load in result.metadata["shard_loads"]:
        fam.observe(max(load / total, 1e-300))
    return result
