"""Re-solve controller: when and how to recompute the optimal split.

The controller owns the solver side of the control loop.  Given an
offered-rate estimate (from :mod:`repro.runtime.estimator`) and the
current cluster health (:mod:`repro.runtime.health`), it

1. clamps the target rate to what the surviving capacity admits
   (graceful degradation instead of :class:`InfeasibleError`),
2. quantizes the admitted rate onto a relative grid — estimates are
   noisy, and two solves a fraction of a percent apart produce
   indistinguishable splits, so nearby targets share one cache entry,
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
    **solver_kwargs:
        Forwarded to every solver call (e.g. ``tol``).
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
        **solver_kwargs,
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
        self._cache_size = int(cache_size)
        self.hysteresis = float(hysteresis)
        self._solver_kwargs = dict(solver_kwargs)
        self._cache: OrderedDict[tuple, LoadDistributionResult] = OrderedDict()
        # Warm-start anchor: the last converged multiplier, valid only
        # while the active configuration it was solved on is unchanged.
        self._phi_hint: float | None = None
        self._phi_fingerprint: tuple | None = None

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

        The grid step is ``rate_quantum * capacity``; the snapped value
        is clamped back into ``(0, admissible]`` so quantization can
        never round an admissible target across the degradation cap.
        """
        step = self._quantum * plan.capacity
        snapped = round(admitted / step) * step
        admissible = self._health.utilization_cap * plan.capacity
        return min(max(snapped, step), admissible)

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
        plan = self._health.plan(offered_rate)
        group = self._health.active_group()
        fingerprint = self._health.fingerprint()
        backend = resolve_method(group, self._method if method is None else method)
        solved_rate = self._quantize(plan.admitted_rate, plan)
        key = (fingerprint, solved_rate, self._discipline.value, backend)

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

        kwargs = dict(self._solver_kwargs)
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

        if math.isfinite(result.phi):
            self._phi_hint = result.phi
            self._phi_fingerprint = fingerprint
        self._cache[key] = result
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return ResolveOutcome(
            result=result,
            weights=self._to_weights(result),
            plan=plan,
            solved_rate=solved_rate,
            cache_hit=False,
            latency=latency,
        )

    def _to_weights(self, result: LoadDistributionResult) -> np.ndarray:
        return self._health.expand(result.fractions)

    def prime_phi_hint(self, phi: float) -> None:
        """Seed the warm-start anchor from outside the resolve path.

        The sharded coordinator pushes its *global* multiplier down
        here.  That does not start a shard's next re-solve in the
        quadratic basin: the multiplier scales as ``1/lambda'``, so at
        a shard's fraction of the fleet rate it is too large (~8x for
        8 even shards), falls outside the shard's multiplier band, and
        the solve re-anchors to its cold start.  Rescaling it is open
        (ROADMAP open item 2).  The anchor is bound to the current
        health fingerprint exactly like a locally earned one, so a
        topology change invalidates it.
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
        JSON-safe dict (the checkpoint codec owns result serialization
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

        Keys arrive as (possibly nested) lists after a JSON round trip;
        they are re-tuplified here so lookups against freshly computed
        ``(fingerprint, rate, discipline, backend)`` keys hit.
        """
        hint = state["phi_hint"]
        self._phi_hint = None if hint is None else float(hint)
        fp = state["phi_fingerprint"]
        self._phi_fingerprint = None if fp is None else _deep_tuple(fp)
        self._cache = OrderedDict(
            (_deep_tuple(key), decode_result(encoded))
            for key, encoded in state["cache"]
        )


def _deep_tuple(value):
    """Recursively convert lists back into tuples (JSON inverse)."""
    if isinstance(value, (list, tuple)):
        return tuple(_deep_tuple(v) for v in value)
    return value
