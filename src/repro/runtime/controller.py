"""Re-solve controller: when and how to recompute the optimal split.

The controller owns the solver side of the control loop.  Given an
offered-rate estimate (from :mod:`repro.runtime.estimator`) and the
current cluster health (:mod:`repro.runtime.health`), it

1. clamps the target rate to what the surviving capacity admits
   (graceful degradation instead of :class:`InfeasibleError`),
2. quantizes the admitted rate onto a relative grid (through the
   seed's rate when one is given) — estimates are noisy, and two solves a
   fraction of a percent apart produce indistinguishable splits, so
   nearby targets share one cache entry,
3. answers from an LRU cache keyed by ``(health fingerprint,
   quantized rate, discipline, backend)`` when possible,
4. otherwise calls the solver façade, warm-starting ``phi`` from the
   last converged multiplier when the registry marks the backend
   warm-startable (as :func:`repro.solve_sweep` does — along a
   drifting-load trajectory consecutive optima have nearby multipliers
   for exactly the reason sweep points do), and
5. applies *hysteresis* at adoption time: a new split whose routing
   fractions barely differ from the live ones is discarded, so
   estimator noise never thrashes the router.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..core.response import Discipline
from ..core.result import LoadDistributionResult
from ..core.solvers import dispatch, resolve_method, warm_startable_methods
from ..core.exceptions import ParameterError
from ..obs import get_obs
from .health import CapacityPlan, HealthTracker

__all__ = ["ResolveOutcome", "ResolveController"]


@dataclass(frozen=True)
class ResolveOutcome:
    """Everything one controller decision produced.

    Attributes
    ----------
    result:
        The solver output over the *active* subgroup.
    weights:
        Full-group routing weights (down servers at exactly zero),
        normalized to sum to one.
    plan:
        The capacity plan the target rate came from.
    solved_rate:
        The quantized rate the split was actually solved at.
    cache_hit:
        Whether the split came from the LRU cache.
    latency:
        Wall-clock seconds spent in the solver (zero on cache hits).
    """

    result: LoadDistributionResult
    weights: np.ndarray
    plan: CapacityPlan
    solved_rate: float
    cache_hit: bool
    latency: float


class ResolveController:
    """Turns rate estimates into (cached, warm-started) optimal splits.

    Parameters
    ----------
    health:
        The cluster health tracker; defines the active subgroup and the
        degradation plan.
    discipline:
        Queueing discipline passed to the solver.
    method:
        Solver backend name (``"auto"`` resolves per active subgroup —
        a failure that shrinks the group below the Newton threshold
        switches backends transparently).
    rate_quantum:
        Width of the rate-quantization grid as a fraction of the active
        subgroup's capacity (e.g. ``0.002`` = 0.2% of ``lambda'_max``).
    cache_size:
        Maximum retained splits in the LRU cache.
    hysteresis:
        Minimum total-variation distance between the live and the new
        routing fractions for the new split to be worth adopting.  Zero
        disables hysteresis.
    solve_fn:
        The solver callable, with the signature of
        :func:`~repro.core.solvers.dispatch` (the default).  The
        fault-injection framework substitutes a wrapped callable here;
        production callers never need to.
    seed:
        A known optimum to start from, or ``None``.  The sharded loop
        passes the bootstrap fleet solve restricted to the shard.  The
        quantization grid is then shifted by ``off = r0 - round(r0 /
        step0) * step0``, ``r0`` being the seed's total rate and
        ``step0`` the full group's step, so ``r0`` is a grid point, and
        the seed is cached under the key a resolve at ``r0`` computes:
        that resolve is an ordinary cache hit.  A seed whose rate does
        not quantize to itself (a design rate above the degradation
        cap) is dropped and the grid stays plain.  A restore passes the
        same seed for the same grid; the checkpoint then replaces the
        cache.  Without a seed the grid is the plain ``k * step``.
    """

    def __init__(
        self,
        health: HealthTracker,
        discipline: Discipline | str = Discipline.FCFS,
        method: str = "auto",
        rate_quantum: float = 0.002,
        cache_size: int = 64,
        hysteresis: float = 0.0,
        solve_fn=None,
        seed: LoadDistributionResult | None = None,
    ) -> None:
        if not (0.0 < rate_quantum < 0.5):
            raise ParameterError(
                f"rate_quantum must be in (0, 0.5), got {rate_quantum!r}"
            )
        if cache_size < 1:
            raise ParameterError(f"cache_size must be >= 1, got {cache_size}")
        if not (0.0 <= hysteresis < 1.0):
            raise ParameterError(f"hysteresis must be in [0, 1), got {hysteresis!r}")
        self._health = health
        self._discipline = Discipline.coerce(discipline)
        self._method = method
        self._solve_fn = dispatch if solve_fn is None else solve_fn
        self._quantum = float(rate_quantum)
        self._offset = 0.0
        self._cache_size = int(cache_size)
        self.hysteresis = float(hysteresis)
        self._cache: OrderedDict[tuple, LoadDistributionResult] = OrderedDict()
        # Warm-start anchor: the last converged multiplier, valid only
        # while the active configuration it was solved on is unchanged.
        self._phi_hint: float | None = None
        self._phi_fingerprint: tuple | None = None
        # The runtime's live split, (result, weights); see set_live.
        self._live: tuple | None = None
        if seed is not None:
            self._seed(seed)

    @property
    def discipline(self) -> Discipline:
        """The queueing discipline splits are solved for."""
        return self._discipline

    @property
    def cache_len(self) -> int:
        """Number of splits currently cached."""
        return len(self._cache)

    def _quantize(self, admitted: float, plan: CapacityPlan) -> float:
        """Snap the admitted rate onto the relative grid (still feasible).

        The grid is ``off + k * step`` with ``step = rate_quantum *
        capacity`` and the seed's offset ``off`` (see the class
        docstring), rounded to the nearest point and clamped into
        ``[lowest positive grid point, admissible]`` so quantization
        can never round an admissible target across the degradation
        cap.  The solved rate is never more than 1.5x below the admitted
        one: when the lowest point is under a full step (a shifted
        grid), a rate above 1.5x it rounds up to the next point instead.
        With ``off == 0.0`` that never happens, and the grid is the
        plain one bit for bit.
        """
        step = self._quantum * plan.capacity
        off = self._offset
        lowest = off - math.floor(off / step) * step
        if lowest <= 0.0:
            lowest += step
        snapped = round((admitted - off) / step) * step + off
        if snapped <= lowest:
            snapped = lowest
            if lowest < step and admitted > 1.5 * lowest:
                snapped += step
        admissible = self._health.utilization_cap * plan.capacity
        return min(snapped, admissible)

    def _key(self, offered_rate: float, method: str | None):
        """The capacity plan, active group and LRU key of one resolve."""
        plan = self._health.plan(offered_rate)
        group = self._health.active_group()
        backend = resolve_method(group, self._method if method is None else method)
        solved_rate = self._quantize(plan.admitted_rate, plan)
        key = (self._health.fingerprint(), solved_rate, self._discipline.value, backend)
        return plan, group, key

    def resolve(self, offered_rate: float, method: str | None = None) -> ResolveOutcome:
        """Compute (or recall) the optimal split for an offered rate.

        ``method`` overrides the configured backend for this one call —
        the resilience supervisor's fallback chain steps through
        alternative backends this way.  Overridden solves share the
        same LRU cache (the backend name is part of the key).

        When observability is enabled the decision is wrapped in a
        ``resolve`` span and recorded as
        ``repro_controller_cache_total{result="hit"|"miss"}`` plus, on
        misses, the ``repro_resolve_seconds`` latency histogram.
        """
        o = get_obs()
        if not o.enabled:
            return self._resolve(offered_rate, method)
        with o.tracer.span("resolve", rate=float(offered_rate)) as sp:
            out = self._resolve(offered_rate, method)
            sp.note(
                backend=out.result.method,
                cache_hit=out.cache_hit,
                solved_rate=out.solved_rate,
            )
        reg = o.registry
        reg.counter(
            "repro_controller_cache_total",
            "Controller LRU cache outcomes",
            labels=("result",),
        ).labels(result="hit" if out.cache_hit else "miss").inc()
        if not out.cache_hit:
            reg.histogram(
                "repro_resolve_seconds",
                "Wall-clock seconds per uncached controller resolve",
                lo=1e-6,
                hi=1e3,
            ).observe(out.latency)
        return out

    def _resolve(self, offered_rate: float, method: str | None) -> ResolveOutcome:
        plan, group, key = self._key(offered_rate, method)
        fingerprint, solved_rate, _, backend = key

        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return ResolveOutcome(
                result=cached,
                weights=self._to_weights(cached),
                plan=plan,
                solved_rate=solved_rate,
                cache_hit=True,
                latency=0.0,
            )

        kwargs = {}
        if (
            backend in warm_startable_methods()
            and self._phi_hint is not None
            and self._phi_fingerprint == fingerprint
        ):
            kwargs["phi_hint"] = self._phi_hint
        start = time.perf_counter()
        result = self._solve_fn(
            group, solved_rate, self._discipline, method=backend, **kwargs
        )
        latency = time.perf_counter() - start

        if "phi_hint" in kwargs and math.isfinite(result.phi):
            o = get_obs()
            if o.enabled:
                o.registry.histogram(
                    "repro_warm_start_phi_delta",
                    "Distance from the warm-start hint to the converged phi",
                    lo=1e-12,
                    hi=1e3,
                ).observe(abs(result.phi - kwargs["phi_hint"]))

        self._store(key, result)
        return ResolveOutcome(
            result=result,
            weights=self._to_weights(result),
            plan=plan,
            solved_rate=solved_rate,
            cache_hit=False,
            latency=latency,
        )

    def _store(self, key: tuple, result: LoadDistributionResult) -> None:
        """Cache ``result`` under ``key`` and anchor the warm start on it."""
        if math.isfinite(result.phi):
            self._phi_hint = result.phi
            self._phi_fingerprint = key[0]
        self._cache[key] = result
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def _seed(self, result: LoadDistributionResult) -> None:
        """Shift the grid through ``result``'s rate and cache it there."""
        if result.discipline is not self._discipline:
            raise ParameterError(
                f"seed was solved for {result.discipline.value!r}, "
                f"controller solves for {self._discipline.value!r}"
            )
        r0 = result.total_rate
        step0 = self._quantum * self._health.group.max_generic_rate
        # Fixed here, not per call from the current step, so a failure
        # that shrinks the step keeps the grid through r0.
        self._offset = r0 - round(r0 / step0) * step0
        _, _, key = self._key(r0, None)
        if key[1] != r0:
            self._offset = 0.0
            return
        self._store(key, result)

    def _to_weights(self, result: LoadDistributionResult) -> np.ndarray:
        """``result``'s read-only full-group weights: the live vector
        itself when ``result`` is the live result, else a new one."""
        live = self._live
        if live is not None and live[0] is result:
            return live[1]
        weights = self._health.expand(result.fractions)
        weights.setflags(write=False)
        return weights

    def set_live(
        self, result: LoadDistributionResult | None, weights: np.ndarray | None
    ) -> None:
        """Record the split the runtime routes on (``None``: no split).

        A later cache hit that returns ``result`` hands back ``weights``
        itself, not an equal new O(n) vector, so the runtime and the
        supervisor's pin keep sharing one vector, and a checkpoint
        writes it once.
        """
        self._live = None if result is None else (result, weights)

    def prime_phi_hint(self, phi: float) -> None:
        """Seed the warm-start anchor from outside the resolve path.

        The sharded coordinator pushes each shard its share of the
        fleet optimum here: the fleet multiplier rescaled to the
        shard's own load, ``phi * lambda' / g_s``, which is that
        shard's optimal multiplier at ``g_s`` (the multiplier scales as
        ``1/lambda'``).  The anchor is bound to the current health
        fingerprint exactly like a locally earned one, so a topology
        change invalidates it.
        """
        if math.isfinite(phi) and phi > 0.0:
            self._phi_hint = float(phi)
            self._phi_fingerprint = self._health.fingerprint()

    def should_adopt(
        self, current_weights: np.ndarray | None, new_weights: np.ndarray
    ) -> bool:
        """Hysteresis gate: is the new split different enough to matter?

        Compares routing fraction vectors by total-variation distance
        ``0.5 * sum |p_i - q_i|``.  Always adopts when there is no live
        split or hysteresis is disabled.
        """
        if current_weights is None or self.hysteresis == 0.0:
            return True
        tv = 0.5 * float(np.abs(new_weights - current_weights).sum())
        return tv >= self.hysteresis

    def state_dict(self, encode_result) -> dict:
        """Snapshot the warm-start anchor and the LRU cache.

        ``encode_result`` maps a :class:`LoadDistributionResult` to a
        JSON-safe value (the checkpoint codec owns result serialization
        so this module stays persistence-agnostic).  Cache entries are
        emitted in LRU order — oldest first — so a restore reproduces
        the exact eviction order.
        """
        return {
            "phi_hint": self._phi_hint,
            "phi_fingerprint": self._phi_fingerprint,
            "cache": [
                [list(key), encode_result(result)]
                for key, result in self._cache.items()
            ],
        }

    def load_state(self, state: dict, decode_result) -> None:
        """Restore a :meth:`state_dict` snapshot.

        Keys arrive as lists after a JSON round trip; they are
        re-tuplified here so lookups against freshly computed
        ``(fingerprint, rate, discipline, backend)`` keys hit.
        """
        hint = state["phi_hint"]
        self._phi_hint = None if hint is None else float(hint)
        fp = state["phi_fingerprint"]
        self._phi_fingerprint = None if fp is None else tuple(fp)
        self._cache = OrderedDict(
            ((tuple(down), rate, discipline, backend), decode_result(encoded))
            for (down, rate, discipline, backend), encoded in state["cache"]
        )
