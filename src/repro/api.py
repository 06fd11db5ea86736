"""The public facade: ``repro.solve`` and friends.

One call runs the paper's optimization end to end::

    >>> import repro
    >>> group = repro.BladeServerGroup.from_arrays(
    ...     sizes=[1, 2], speeds=[1.0, 2.0], special_rates=[0.2, 0.3]
    ... )
    >>> res = repro.solve(group, 1.5, discipline="fcfs")
    >>> res.mean_response_time            # doctest: +SKIP
    1.23456

``solve`` accepts either a :class:`~repro.core.server.BladeServerGroup`
or a plain sequence of :class:`~repro.core.server.BladeServer`, resolves
the backend through the method registry in :mod:`repro.core.solvers`
(``method="paper"`` is an alias for the paper's nested bisection), and
returns a :class:`SolveResult` — the familiar
:class:`~repro.core.result.LoadDistributionResult` plus the resolved
backend name and the wall-clock the solve took.

:func:`solve_sweep` is the batched variant for figure grids, threading
``phi`` warm starts between consecutive points for the backends that
support them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .core.response import Discipline
from .core.result import LoadDistributionResult
from .core.server import BladeServer, BladeServerGroup
from .core.solvers import dispatch, resolve_method, warm_startable_methods

__all__ = ["SolveResult", "solve", "solve_sweep", "as_group"]

#: Friendly method aliases accepted by the facade on top of the
#: registry's canonical names.  ``"paper"`` names the algorithm as
#: published (nested bisection, Figs. 2-3).
METHOD_ALIASES: dict[str, str] = {"paper": "bisection"}


@dataclass(frozen=True)
class SolveResult(LoadDistributionResult):
    """A :class:`LoadDistributionResult` plus facade-level context.

    Attributes
    ----------
    backend:
        The registry name of the backend that actually ran (``"auto"``
        and aliases resolved — e.g. ``"kkt"``, ``"newton"``).
    elapsed_seconds:
        Wall-clock duration of the backend call.
    """

    backend: str = ""
    elapsed_seconds: float = 0.0

    @classmethod
    def _wrap(
        cls, result: LoadDistributionResult, backend: str, elapsed: float
    ) -> "SolveResult":
        base = {f.name: getattr(result, f.name) for f in fields(LoadDistributionResult)}
        return cls(**base, backend=backend, elapsed_seconds=float(elapsed))


def as_group(
    servers: BladeServerGroup | Iterable[BladeServer], rbar: float = 1.0
) -> BladeServerGroup:
    """Coerce the facade's ``servers`` argument to a
    :class:`BladeServerGroup`.

    A group passes through unchanged (``rbar`` ignored); an iterable of
    :class:`BladeServer` is wrapped into a new group sharing ``rbar``.
    """
    if isinstance(servers, BladeServerGroup):
        return servers
    return BladeServerGroup(servers, rbar=rbar)


def _resolve_alias(method: str) -> str:
    return METHOD_ALIASES.get(method.lower(), method)


def solve(
    servers: BladeServerGroup | Iterable[BladeServer],
    lam: float,
    *,
    discipline: Discipline | str = Discipline.FCFS,
    method: str = "auto",
    rbar: float = 1.0,
    **solver_kwargs,
) -> SolveResult:
    """Optimally distribute generic load ``lam`` over ``servers``.

    The one public entry point for the paper's optimization (Tables
    1-2, every figure): minimizes the mean generic-task response time
    ``T'`` subject to ``sum_i lambda'_i = lam`` and per-server
    stability.

    Parameters
    ----------
    servers:
        A :class:`BladeServerGroup`, or any iterable of
        :class:`BladeServer` (wrapped into a group with ``rbar``).
    lam:
        Total generic arrival rate ``lambda'``; must be strictly below
        the group's saturation point.
    discipline:
        ``"fcfs"`` (generic and special tasks share the queue, paper
        Section 3) or ``"priority"`` (special tasks preempt, Section 4).
    method:
        ``"auto"`` (default), a registered backend name
        (``"bisection"``, ``"kkt"``, ``"slsqp"``, ``"closed-form"``,
        ``"newton"``), or the alias ``"paper"`` for the published
        nested bisection.
    rbar:
        Shared mean task size, used only when ``servers`` is a plain
        sequence.
    **solver_kwargs:
        Backend extras, e.g. ``tol=1e-12`` or ``phi_hint=...`` for the
        warm-startable backends (``bisection``, ``newton``).

    Returns
    -------
    SolveResult
        The optimal rates, ``T'``, multiplier ``phi``, utilizations,
        per-server response times — plus the resolved backend name and
        elapsed wall-clock.

    Raises
    ------
    InfeasibleError
        If ``lam`` meets or exceeds the group's saturation point.
    ParameterError
        On an unknown method or malformed inputs.
    """
    group = as_group(servers, rbar=rbar)
    backend = resolve_method(group, _resolve_alias(method))
    start = time.perf_counter()
    result = dispatch(group, float(lam), discipline, method=backend, **solver_kwargs)
    elapsed = time.perf_counter() - start
    return SolveResult._wrap(result, backend, elapsed)


def solve_sweep(
    servers: BladeServerGroup | Iterable[BladeServer],
    rates: Sequence[float],
    *,
    discipline: Discipline | str = Discipline.FCFS,
    method: str = "auto",
    warm_start: bool = True,
    rbar: float = 1.0,
    **solver_kwargs,
) -> list[SolveResult]:
    """Run :func:`solve` at every ``lambda'`` of a sweep grid, in order.

    For warm-startable backends (``bisection`` and ``newton``; see
    :func:`~repro.core.solvers.warm_startable_methods`), each point
    after the first passes the previous point's converged ``phi`` as
    ``phi_hint``, so the solver starts from the old multiplier instead
    of the cold-start seed.  The hint is passed unscaled although
    ``phi`` scales as ``1/lambda'`` (rescaling it is ROADMAP open
    item 2).  Results are identical to cold starts up to the solver
    tolerance; only the bracketing work changes.

    Parameters
    ----------
    servers, discipline, method, rbar, **solver_kwargs:
        As in :func:`solve`.
    rates:
        Total generic arrival rates, one sweep point each.  Warm
        starting works best when they are monotone (as the figure grids
        are), but correctness does not depend on ordering.
    warm_start:
        Disable to force every point onto the cold-start path (used by
        benchmarks comparing the two).
    """
    group = as_group(servers, rbar=rbar)
    backend = resolve_method(group, _resolve_alias(method))
    hintable = warm_start and backend in warm_startable_methods()
    results: list[SolveResult] = []
    hint = None
    for rate in rates:
        kwargs = dict(solver_kwargs)
        if hintable and hint is not None:
            kwargs["phi_hint"] = hint
        res = solve(
            group, float(rate), discipline=discipline, method=backend, **kwargs
        )
        if hintable:
            hint = res.phi
        results.append(res)
    return results
