"""Solver method registry and the internal dispatch path.

The public way to run the optimizer is :func:`repro.solve` (see
:mod:`repro.api`); this module owns the machinery underneath it:

* :class:`SolverMethod` / :func:`register_method` — the backend
  registry.  Each entry binds a name to a solver callable plus its
  capabilities (currently: whether it accepts ``phi_hint`` warm
  starts).  Out-of-tree backends register themselves here and become
  addressable through ``repro.solve(..., method="name")``.
* :func:`resolve_method` — ``"auto"`` resolution and name validation.
* :func:`dispatch` — the internal entry point every
  in-tree caller (facade, controller, sweeps, analysis) routes
  through.  It is also the observability choke point: one ``solve``
  span and the ``repro_solve_*`` metrics per invocation, regardless of
  which entry point the caller came in by.

Registered backends:

=================  ==========================================================
method             backend
=================  ==========================================================
``"bisection"``    paper's nested bisection (Figs. 2–3), the reference
``"kkt"``          Brent-based water-filling (same answer, fast for small n)
``"slsqp"``        scipy SLSQP on the constrained simplex
``"closed-form"``  Theorems 1/3 (requires all ``m_i = 1``)
``"newton"``       damped-Newton dual ascent on analytic second derivatives
                   (warm-startable; the large-group backend, but 1.85x
                   slower than ``kkt`` over the 40 n = 7 paper-figure
                   sweeps of 25 warm-started points each)
``"auto"``         ``closed-form`` when all sizes are 1, ``newton`` for
                   groups of n >= 16, else ``kkt``
=================  ==========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..obs import get_obs
from .bisection import calculate_t_prime
from .closed_form import solve_closed_form
from .exceptions import ParameterError
from .kkt import solve_kkt
from .newton import solve_newton
from .nlp import solve_nlp
from .response import Discipline
from .result import LoadDistributionResult
from .server import BladeServerGroup

__all__ = [
    "SolverMethod",
    "register_method",
    "registered_methods",
    "available_methods",
    "warm_startable_methods",
    "resolve_method",
    "dispatch",
]

_Solver = Callable[..., LoadDistributionResult]


@dataclass(frozen=True)
class SolverMethod:
    """One registered solver backend.

    Attributes
    ----------
    name:
        The name accepted by ``repro.solve(..., method=name)``.
    fn:
        The solver callable, with the signature
        ``fn(group, total_rate, discipline, **kwargs)``.
    warm_startable:
        Whether ``fn`` accepts a ``phi_hint`` keyword (multiplier warm
        starts along sweeps and controller trajectories).
    """

    name: str
    fn: _Solver
    warm_startable: bool = False


_REGISTRY: dict[str, SolverMethod] = {}


def register_method(
    name: str,
    fn: _Solver,
    *,
    warm_startable: bool = False,
    replace: bool = False,
) -> SolverMethod:
    """Register (or, with ``replace``, override) a solver backend.

    ``name`` becomes addressable via ``repro.solve(..., method=name)``
    and :func:`dispatch`.  ``"auto"`` is
    reserved for the resolution rule.
    """
    key = name.lower()
    if key == "auto":
        raise ParameterError('"auto" is reserved for the resolution rule')
    if key in _REGISTRY and not replace:
        raise ParameterError(
            f"method {name!r} is already registered; pass replace=True to override"
        )
    if not callable(fn):
        raise ParameterError(f"solver backend must be callable, got {fn!r}")
    method = SolverMethod(name=key, fn=fn, warm_startable=warm_startable)
    _REGISTRY[key] = method
    return method


def registered_methods() -> dict[str, SolverMethod]:
    """Snapshot of the registry (name to :class:`SolverMethod`)."""
    return dict(_REGISTRY)


def available_methods() -> tuple[str, ...]:
    """Names accepted by ``repro.solve(..., method=...)``."""
    return tuple(_REGISTRY) + ("auto",)


def warm_startable_methods() -> frozenset[str]:
    """Backend names whose solver accepts a ``phi_hint`` warm start."""
    return frozenset(m.name for m in _REGISTRY.values() if m.warm_startable)


register_method("bisection", calculate_t_prime, warm_startable=True)
register_method("kkt", solve_kkt)
register_method("slsqp", solve_nlp)
register_method("closed-form", solve_closed_form)
register_method("newton", solve_newton, warm_startable=True)

#: Group size at which ``"auto"`` switches from the scalar KKT solver to
#: the damped-Newton dual-ascent backend (crossover measured in
#: ``benchmarks/bench_solver_scaling.py`` and committed in
#: ``BENCH_solver_scaling.json``).  Below it, warm-started paper-figure
#: sweeps run faster on ``kkt`` than on ``newton``.
AUTO_NEWTON_THRESHOLD = 16


def resolve_method(group: BladeServerGroup, method: str = "auto") -> str:
    """Concrete backend name for ``method`` on ``group``.

    Resolves ``"auto"`` (closed form for all-``m_i = 1`` groups, the
    Newton dual-ascent backend from :data:`AUTO_NEWTON_THRESHOLD`
    servers up, KKT otherwise) and validates explicit names against the
    registry.
    """
    name = method.lower()
    if name == "auto":
        if all(srv.size == 1 for srv in group.servers):
            return "closed-form"
        if len(group.servers) >= AUTO_NEWTON_THRESHOLD:
            return "newton"
        return "kkt"
    if name not in _REGISTRY:
        raise ParameterError(
            f"unknown method {method!r}; available: {available_methods()}"
        )
    return name


#: Resolved metric families of the solve funnel, keyed by the registry
#: instance they came from.  Family lookup walks the registry's name
#: table and re-validates labels on every call; on the obs-enabled hot
#: path that cost used to be paid three times per solve, inflating the
#: dispatch-overhead budget the benchmarks assert.  The cache is
#: invalidated by identity, so ``configure()`` swapping in a fresh
#: registry (or tests resetting the global context) transparently
#: re-resolves against the new instance.
_SOLVE_METRICS: tuple | None = None


def _solve_metrics(reg):
    """The (counter, latency, iterations) families bound to ``reg``."""
    global _SOLVE_METRICS
    cached = _SOLVE_METRICS
    if cached is None or cached[0] is not reg:
        cached = (
            reg,
            reg.counter(
                "repro_solves_total",
                "Solver invocations per backend",
                labels=("method",),
            ),
            reg.histogram(
                "repro_solve_seconds", "Wall-clock seconds per solve", lo=1e-6, hi=1e3
            ),
            reg.histogram(
                "repro_solve_iterations",
                "Outer-loop iterations per solve",
                lo=1.0,
                hi=65536.0,
                buckets=16,
            ),
        )
        _SOLVE_METRICS = cached
    return cached[1], cached[2], cached[3]


def dispatch(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
    method: str = "auto",
    **solver_kwargs,
) -> LoadDistributionResult:
    """Resolve ``method`` and run the backend (internal entry point).

    This is the single funnel every solve in the library passes
    through; when observability is enabled it wraps the backend call in
    a ``solve`` span and records

    * ``repro_solves_total{method}`` — invocations per backend,
    * ``repro_solve_seconds`` — wall-clock latency histogram,
    * ``repro_solve_iterations`` — outer-loop iteration histogram.

    External callers should use :func:`repro.solve`, which adds input
    coercion and returns the richer
    :class:`~repro.api.SolveResult`.
    """
    backend = _REGISTRY[resolve_method(group, method)]
    o = get_obs()
    if not o.enabled:
        return backend.fn(group, total_rate, discipline, **solver_kwargs)
    with o.tracer.span(
        "solve",
        n=group.n,
        method=backend.name,
        lam=float(total_rate),
        discipline=str(getattr(discipline, "value", discipline)),
    ) as span:
        start = time.perf_counter()
        result = backend.fn(group, total_rate, discipline, **solver_kwargs)
        elapsed = time.perf_counter() - start
        span.note(iterations=result.iterations, t_prime=result.mean_response_time)
    solves, seconds, iters = _solve_metrics(o.registry)
    solves.labels(method=backend.name).inc()
    seconds.observe(elapsed)
    iters.observe(max(result.iterations, 1))
    return result

