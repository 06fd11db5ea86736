"""Load distribution under per-server rate caps.

Operators often cannot route arbitrary traffic to a server even when
queueing theory says they should — network bandwidth to the chassis,
software license limits, or tenancy agreements cap the generic rate a
server may receive.  This module extends the paper's optimizer with
explicit upper bounds ``lambda'_i <= c_i``.

The KKT structure barely changes: with box constraints the optimal rate
of server ``i`` at multiplier ``phi`` is the *clipped* water-filling
value

.. math::

    \\lambda'_i(\\phi) = \\mathrm{clip}\\big(g_i^{-1}(\\phi),\\ 0,\\ c_i\\big),

where ``g_i`` is the marginal cost; servers pinned at their cap carry a
marginal *below* the common ``phi`` (they would love more traffic but
may not take it), mirroring the servers pinned at zero whose marginal
sits above ``phi``.  That is exactly the water-filling the Newton dual
ascent (:func:`~repro.core.newton.dual_ascent`) already solves against
the spare capacities, so a capped solve is one dual ascent with each
server's bound lowered to ``min(c_i, spare_i)``.  With every cap
infinite it is the uncapped :func:`~repro.core.newton.solve_newton`
solve, bit for bit.  An instance is feasible iff ``total_rate`` is at
most the sum of the rate ceilings the ascent pins servers at
(:func:`~repro.core.newton.rate_ceilings`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bisection import DEFAULT_TOL
from .exceptions import InfeasibleError, ParameterError
from .newton import dual_ascent, rate_ceilings
from .response import Discipline
from .result import LoadDistributionResult
from .server import BladeServerGroup

__all__ = ["solve_capped"]


def solve_capped(
    group: BladeServerGroup,
    total_rate: float,
    caps: Sequence[float],
    discipline: Discipline | str = Discipline.FCFS,
) -> LoadDistributionResult:
    """Minimize ``T'`` subject to ``sum = total_rate`` and ``rate_i <= caps_i``.

    Parameters
    ----------
    group, total_rate, discipline:
        As for :func:`~repro.core.kkt.solve_kkt`.
    caps:
        Per-server upper bounds on the generic rate (``inf`` allowed).
        Effective bounds are ``min(cap_i, spare_capacity_i)``.

    Raises
    ------
    InfeasibleError
        If the capped instance cannot absorb ``total_rate``.
    """
    disc = Discipline.coerce(discipline)
    group.check_feasible(total_rate)
    caps_arr = np.asarray(caps, dtype=float)
    if caps_arr.shape != (group.n,):
        raise ParameterError(
            f"expected {group.n} caps, got shape {caps_arr.shape}"
        )
    if np.any(np.isnan(caps_arr)) or np.any(caps_arr < 0.0):
        raise ParameterError("caps must be >= 0 (inf allowed, nan not)")
    # Effective bound: the cap or the spare capacity, whichever binds.
    # The ascent pins a server at its ceiling, just below that bound.
    bounds = np.minimum(caps_arr, group.spare_capacities)
    ceilings = rate_ceilings(bounds)
    if float(ceilings.sum()) < total_rate:
        raise InfeasibleError(
            f"caps admit at most {ceilings.sum():.6g} < requested "
            f"{total_rate:.6g}",
            total_rate=total_rate,
            capacity=float(ceilings.sum()),
        )
    rates, phi, iterations, _ = dual_ascent(
        group.sizes.astype(np.int64),
        group.xbars.astype(float),
        group.special_rates.astype(float),
        bounds,
        total_rate,
        disc,
        DEFAULT_TOL,
        None,
    )
    capped = (rates >= ceilings * (1 - 1e-9)).tolist()
    return LoadDistributionResult.from_rates(
        group, rates, phi, disc, "kkt-capped",
        iterations=iterations, metadata={"caps": caps_arr.tolist(), "capped": capped},
    )
