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
sits above ``phi``.  The group total remains continuous and
non-decreasing in ``phi``, so the same outer Brent search applies.  An
instance is feasible iff ``total_rate <= sum_i min(c_i, spare_i)``
(strictly below in the spare-capacity component).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .exceptions import ConvergenceError, InfeasibleError, ParameterError
from .kkt import rate_for_multiplier
from .objective import marginal_cost
from .response import Discipline
from .result import LoadDistributionResult
from .server import BladeServerGroup

__all__ = ["solve_capped"]

_STABILITY_MARGIN = 1e-13
_MAX_DOUBLINGS = 4000


def solve_capped(
    group: BladeServerGroup,
    total_rate: float,
    caps: Sequence[float],
    discipline: Discipline | str = Discipline.FCFS,
    xtol: float = 1e-13,
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
    # Effective bound: the cap, the stability boundary, whichever binds.
    spare = group.spare_capacities * (1.0 - _STABILITY_MARGIN)
    bounds = np.minimum(caps_arr, spare)
    if float(bounds.sum()) < total_rate:
        raise InfeasibleError(
            f"caps admit at most {bounds.sum():.6g} < requested "
            f"{total_rate:.6g}",
            total_rate=total_rate,
            capacity=float(bounds.sum()),
        )
    ms = group.sizes
    xbars = group.xbars
    specials = group.special_rates
    n = group.n

    def rates_for(phi: float) -> np.ndarray:
        out = np.empty(n)
        for i in range(n):
            r = rate_for_multiplier(
                int(ms[i]),
                float(xbars[i]),
                float(specials[i]),
                total_rate,
                phi,
                disc,
            )
            out[i] = min(r, bounds[i])
        return out

    def excess(phi: float) -> float:
        return float(rates_for(phi).sum()) - total_rate

    phi_lo = min(
        marginal_cost(
            int(ms[i]), float(xbars[i]), float(specials[i]), 0.0, total_rate, disc
        )
        for i in range(n)
    )
    phi_hi = max(phi_lo, 1e-9)
    iterations = 0
    for _ in range(_MAX_DOUBLINGS):
        iterations += 1
        if excess(phi_hi) >= 0.0:
            break
        phi_hi *= 2.0
    else:
        raise ConvergenceError("solve_capped could not bracket the multiplier")

    phi = float(
        brentq(excess, phi_lo * (1.0 - 1e-12), phi_hi, xtol=xtol, rtol=8.9e-16)
    )
    rates = rates_for(phi)
    # Distribute the Brent residual over the *unclamped* servers only —
    # capped servers must stay exactly at their caps.
    residual = total_rate - float(rates.sum())
    if abs(residual) > 0.0:
        free = rates < bounds * (1.0 - 1e-12)
        if free.any():
            weights = rates[free]
            if weights.sum() > 0.0:
                rates[free] += residual * weights / weights.sum()
            else:
                rates[free] += residual / int(free.sum())
            rates = np.minimum(rates, bounds)
    capped = (rates >= bounds * (1 - 1e-9)).tolist()
    return LoadDistributionResult.from_rates(
        group, rates, phi, disc, "kkt-capped",
        iterations=iterations, metadata={"caps": caps_arr.tolist(), "capped": capped},
    )
