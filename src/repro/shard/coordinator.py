"""Outer coordinator: the paper's water-filling lifted one level.

The flat optimum equalizes the marginal response-time cost
``g_i(lambda'_i) = phi`` across every un-parked, un-pinned server and
picks ``phi`` so the loads meet the budget ``sum_i lambda'_i = lambda'``
(PAPER.md, Theorem 2 / the KKT stationarity of `core/objective.py`).
Partition the fleet into shards and nothing about that fixed point
changes — the multiplier is *shared*, so:

* **inner problem (per shard)** — at a trial multiplier ``phi``, shard
  ``s`` solves its members' one-dimensional roots
  ``g_i(lambda'_i) = phi`` exactly as the flat Newton backend does, and
  exposes only its aggregate load response

  .. math:: g_s(\\phi) = \\sum_{i \\in s} \\lambda'_i(\\phi),

  a continuous non-decreasing curve (each ``lambda'_i(phi)`` is);

* **outer problem (the coordinator)** — one safeguarded Newton
  iteration on the *shared* multiplier solves the budget equation

  .. math:: F(\\phi) = \\sum_s g_s(\\phi) = \\lambda',

  with analytic slope ``F'(phi) = sum_s g_s'(phi) = sum_free 1/g_i'``
  — term for term the same dual ascent as `core/newton.py`, just
  summed shard-by-shard.

Because the inner roots depend on ``phi`` only through the scalar
comparison ``g_i = phi``, every shard's inner solve at the *same*
multiplier is one batched kernel sweep over the concatenated live
servers — the per-shard decomposition costs no extra kernel calls.
Per-shard warm starts (``phi_hint`` as a dict) exploit the vector-phi
form of :func:`repro.core.newton._inner_newton`: each shard's members
are first rooted at that shard's own hinted multiplier in one batched
sweep, seeding the outer loop where the shards last converged.

With every shard live the candidate set is the whole fleet and the
fixed point is *identical* to the flat solve (the test suite asserts
agreement to <= 1e-8 in mean response time); with a ``live`` mask the
coordinator solves the same program restricted to the surviving
shards' servers — the failover re-solve.

:func:`solve_sharded` is not a ``repro.solve`` backend: flat
``method="newton"`` returns the same answer in about the same time.  It
is the partition-aware solve the sharded runtime
(:mod:`repro.shard.runtime`) calls directly.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ..core.bisection import DEFAULT_TOL, STABILITY_MARGIN, settle_residual
from ..core.exceptions import ConvergenceError, InfeasibleError, ParameterError
from ..core.newton import _inner_newton, marginal_cost_and_slope_vec
from ..core.response import Discipline
from ..core.result import LoadDistributionResult
from ..core.server import BladeServerGroup
from ..obs import get_obs
from .partition import ShardPlan, partition_group

__all__ = ["ShardCoordinator", "solve_sharded"]

#: Outer multiplier iterations before declaring failure (matches the
#: flat Newton backend — the outer problems are the same shape).
_MAX_OUTER = 200


class ShardCoordinator:
    """One sharded solve: the live candidate frame plus the outer dual ascent.

    Instances are cheap, single-use-per-``solve`` helpers: construction
    gathers the live shards' members and precomputes the phi-independent
    thresholds; :meth:`solve` runs the outer loop.  :meth:`response` is public so
    tests (and curious readers) can probe the shard load curves
    ``g_s(phi)`` the coordinator equalizes over.
    """

    def __init__(
        self,
        plan: ShardPlan,
        total_rate: float,
        discipline: Discipline | str = Discipline.FCFS,
        tol: float = DEFAULT_TOL,
        live: np.ndarray | None = None,
    ) -> None:
        if tol <= 0.0:
            raise ParameterError(f"tol must be > 0, got {tol}")
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

        # Failed-over shards contribute no candidates: the masked solve
        # is the same program restricted to the surviving fleet.
        kept = [
            np.asarray(s.members, dtype=np.int64)
            if self.live[s.index]
            else np.empty(0, dtype=np.int64)
            for s in plan.shards
        ]
        # Concatenated candidate frame: every array below is indexed by
        # candidate position; `shard_of` maps positions to shard runs.
        self.cand = np.concatenate(kept)
        counts = np.array([k.size for k in kept], dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self.shard_of = np.repeat(np.arange(plan.n_shards), counts)

        group = self.group
        self.ms = group.sizes.astype(np.int64)[self.cand]
        self.xbars = group.xbars.astype(float)[self.cand]
        self.specials = group.special_rates.astype(float)[self.cand]
        caps = group.spare_capacities[self.cand]
        self.caps = caps
        self.hard_caps = np.where(
            caps > 0.0, (1.0 - STABILITY_MARGIN) * caps, 0.0
        )
        self.zeros = np.zeros(self.cand.size)

        # Same phi-independent thresholds as the flat backend: phi <=
        # g0 parks a candidate, phi > gcap pins it at its hard cap.
        self.g0, _ = marginal_cost_and_slope_vec(
            self.ms, self.xbars, self.specials, self.zeros,
            self.total_rate, self.disc,
        )
        self.gcap, _ = marginal_cost_and_slope_vec(
            self.ms, self.xbars, self.specials, self.hard_caps,
            self.total_rate, self.disc,
        )
        if float(self.hard_caps.sum()) <= self.total_rate:
            # The full group passed check_feasible above, so this only
            # fires when the live mask removed too much capacity — the
            # caller must shed first.
            raise InfeasibleError(
                f"candidate capacity {float(self.hard_caps.sum()):.6g} cannot "
                f"carry total rate {self.total_rate:.6g} "
                f"({int(self.live.sum())}/{plan.n_shards} shards live)"
            )
        usable = caps > 0.0
        self.phi_floor = float(self.g0[usable].min())
        self.phi_ceil = float(np.nextafter(self.gcap[usable].max(), math.inf))

        self.inner_sweeps = 0
        cap_sum = float(caps.sum())
        self._prev = self.total_rate * np.divide(
            caps, cap_sum, out=np.zeros_like(caps), where=cap_sum > 0.0
        )

    def response(
        self,
        phi: float | np.ndarray,
        lo: np.ndarray | None = None,
        hi: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Shard load responses at multiplier(s) ``phi``.

        ``phi`` is a scalar (the outer loop's shared multiplier) or a
        per-candidate vector (the per-shard warm-start seed).  Returns
        ``(loads, rates, fprime)``: per-shard loads ``g_s(phi)``, the
        underlying per-candidate rates, and the dual slope ``F'(phi)``
        summed over free candidates.  ``lo``/``hi`` are component-wise
        root bounds carried over from rate vectors already computed at
        smaller/larger multipliers.
        """
        lo = self.zeros if lo is None else lo
        hi = self.hard_caps if hi is None else hi
        phis = np.broadcast_to(np.asarray(phi, dtype=float), self.cand.shape)
        active = (self.caps > 0.0) & (self.g0 < phis)
        rates = self.zeros.copy()
        fprime = 0.0
        if active.any():
            pinned = active & (self.gcap < phis)
            free = active & ~pinned
            rates = np.where(pinned, self.hard_caps, 0.0)
            if free.any():
                lb = np.clip(
                    np.where(free, lo - self.tol, 0.0), 0.0, self.hard_caps
                )
                ub = np.where(
                    free, np.minimum(hi + self.tol, self.hard_caps), 0.0
                )
                lb = np.minimum(lb, ub)
                x0 = np.where(free, self._prev, 0.0)
                roots, dg, sweeps = _inner_newton(
                    self.ms, self.xbars, self.specials, self.total_rate,
                    phis, self.disc, self.tol, x0, lb, ub,
                )
                self.inner_sweeps += sweeps
                rates = np.where(free, roots, rates)
                with np.errstate(divide="ignore"):
                    fprime = float(np.where(free, 1.0 / dg, 0.0).sum())
            self._prev = rates
        loads = self._shard_loads(rates)
        return loads, rates, fprime

    def _shard_loads(self, rates: np.ndarray) -> np.ndarray:
        """Per-shard load sums over the candidate frame.

        ``bincount`` rather than ``reduceat``: with an empty candidate
        run (a dead shard) ``reduceat`` would return the
        element *at* the duplicated start offset instead of zero.
        """
        return np.bincount(
            self.shard_of, weights=rates, minlength=self.plan.n_shards
        )

    def _seed(self, phi_hint) -> float:
        """Outer-loop starting multiplier from ``phi_hint`` (see solve)."""
        phi_seed = float(np.nextafter(self.phi_floor, math.inf))
        if isinstance(phi_hint, Mapping):
            hints = {int(k): float(v) for k, v in phi_hint.items()}
            per_cand = np.array(
                [
                    hints.get(int(s), 0.0)
                    for s in np.arange(self.plan.n_shards)
                ]
            )[self.shard_of]
            usable = np.isfinite(per_cand) & (per_cand > 0.0)
            if not usable.any():
                return 0.0  # fall back to the cold start
            per_cand = np.clip(
                np.where(usable, per_cand, self.phi_floor),
                phi_seed,
                self.phi_ceil,
            )
            # One batched vector-phi sweep roots every shard at its own
            # hinted multiplier; the loads weight the scalar outer seed
            # toward the shards that actually carry traffic.
            loads, _, _ = self.response(per_cand)
            total = float(loads.sum())
            if total > 0.0:
                shard_phi = np.array(
                    [hints.get(s, self.phi_floor) for s in range(len(loads))]
                )
                return float((loads * shard_phi).sum() / total)
            return float(np.median(per_cand))
        if (
            phi_hint is not None
            and math.isfinite(phi_hint)
            and phi_seed <= phi_hint <= self.phi_ceil
        ):
            return float(phi_hint)
        # Stale (out-of-band) or absent hints fall back to the cold
        # seed — same policy as the flat backend: the band's upper edge
        # diverges with the stability margin, so edge starts are traps.
        return 0.0

    def solve(self, phi_hint=None) -> LoadDistributionResult:
        """Run the outer dual ascent and assemble the full-group result.

        ``phi_hint`` is ``None`` (cold start: median marginal of a
        capacity-proportional split), a float (shared-multiplier warm
        start, clamped into the feasible band), or a mapping
        ``{shard_index: phi}`` of per-shard hints (each shard is rooted
        at its own multiplier in one batched sweep, then the load-
        weighted mean seeds the outer loop).
        """
        tol = self.tol
        total_rate = self.total_rate
        budget_tol = tol * max(1.0, total_rate)
        phi_seed = float(np.nextafter(self.phi_floor, math.inf))

        phi = self._seed(phi_hint)
        if phi <= 0.0:
            usable = self.caps > 0.0
            g_start, _ = marginal_cost_and_slope_vec(
                self.ms, self.xbars, self.specials, self._prev,
                total_rate, self.disc,
            )
            phi = float(np.median(g_start[usable]))
        phi = min(max(float(phi), phi_seed), self.phi_ceil)

        phi_lo, phi_hi = self.phi_floor, self.phi_ceil
        r_lo = self.zeros.copy()
        r_hi = self.hard_caps.copy()
        f_lo = 0.0 - total_rate
        f_hi = float(self.hard_caps.sum()) - total_rate
        rates = self._prev
        iterations = 0
        converged = False
        for _ in range(_MAX_OUTER):
            iterations += 1
            loads, rates, fprime = self.response(phi, r_lo, r_hi)
            resid = float(loads.sum()) - total_rate
            if abs(resid) <= budget_tol:
                converged = True
                break
            if resid < 0.0:
                phi_lo, r_lo, f_lo = phi, rates, resid
            else:
                phi_hi, r_hi, f_hi = phi, rates, resid
            if phi_hi - phi_lo <= 1e-15 * max(phi_hi, 1.0):
                # Flat-marginal band: interpolate the bracketing rate
                # vectors component-wise (same repair as the flat
                # backends).
                t = f_lo / (f_lo - f_hi)
                rates = r_lo + t * (r_hi - r_lo)
                phi = phi_lo + t * (phi_hi - phi_lo)
                converged = True
                break
            if fprime > 0.0 and math.isfinite(fprime):
                cand = phi - resid / fprime
            else:
                cand = math.inf
            if not (math.isfinite(cand) and phi_lo < cand < phi_hi):
                # Same safeguard as the flat backend: geometric
                # bisection while the bracket spans decades.
                if phi_lo > 0.0 and phi_hi > 100.0 * phi_lo:
                    cand = math.sqrt(phi_lo * phi_hi)
                else:
                    cand = 0.5 * (phi_lo + phi_hi)
            phi = float(cand)
        if not converged:
            raise ConvergenceError(
                f"solve_sharded: no convergence in {_MAX_OUTER} outer "
                f"iterations (residual {resid:.3e})"
            )
        # Scatter candidates back to group order; dead shards' servers
        # keep a zero cap so the residual projection cannot route load
        # to them.
        group = self.group
        full_rates = np.zeros(group.n)
        full_rates[self.cand] = rates
        full_caps = np.zeros(group.n)
        full_caps[self.cand] = self.hard_caps
        full_rates = settle_residual(full_rates, total_rate, full_caps)
        loads = self._shard_loads(full_rates[self.cand])
        phi = float(phi)
        return LoadDistributionResult(
            generic_rates=full_rates,
            mean_response_time=group.mean_response_time(full_rates, self.disc),
            phi=phi,
            discipline=self.disc,
            method="sharded-hierarchical",
            utilizations=group.utilizations(full_rates),
            per_server_response_times=group.per_server_response_times(
                full_rates, self.disc
            ),
            iterations=iterations,
            converged=True,
            metadata={
                "shards": self.plan.n_shards,
                "strategy": self.plan.config.strategy,
                "candidates": int(self.cand.size),
                # The converged multiplier is shared, so every shard's
                # next-tick warm start is the same phi — published as a
                # per-shard mapping because drifting shard loads will
                # move them apart between solves.
                "shard_phi": {s: phi for s in range(self.plan.n_shards)},
                "shard_loads": [float(x) for x in loads],
                "live_shards": [bool(x) for x in self.live],
                "inner_sweeps": int(self.inner_sweeps),
            },
        )


def solve_sharded(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
    tol: float = DEFAULT_TOL,
    phi_hint: float | Mapping[int, float] | None = None,
    *,
    plan: ShardPlan | None = None,
    live: np.ndarray | None = None,
) -> LoadDistributionResult:
    """Hierarchical sharded solve over a partition of ``group``.

    ``plan`` names the partition (``partition_group(group, config)``;
    ``None`` means ``partition_group(group)``) and must have been built
    for ``group``.  Each shard's inner KKT splits are solved at the
    shared trial multiplier in one batched sweep, and the outer dual
    ascent equalizes marginal cost across shards; the answer matches
    the flat solve to solver tolerance.

    ``phi_hint`` accepts a float (shared multiplier) or a mapping of
    per-shard hints ``{shard_index: phi}`` — see
    :meth:`ShardCoordinator.solve`.

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
        candidates=int(coordinator.cand.size),
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

