"""Objective function and Lagrange/KKT machinery for the optimization.

The paper minimizes the mean generic-task response time

.. math::

    T'(\\lambda'_1, ..., \\lambda'_n)
      = \\sum_i \\frac{\\lambda'_i}{\\lambda'} T'_i(\\lambda'_i)

subject to ``sum_i lambda'_i = lambda'`` and per-server stability
``lambda'_i < m_i/xbar_i - lambda''_i``.  The method of Lagrange
multipliers yields the stationarity condition (paper Eq. (1))

.. math::

    \\frac{\\partial T'}{\\partial \\lambda'_i}
      = \\frac{1}{\\lambda'}
        \\left(T'_i + \\rho'_i \\frac{\\partial T'_i}{\\partial \\rho_i}\\right)
      = \\phi .

This module implements that *marginal cost* ``partial T'/partial
lambda'_i`` as a standalone function of a single server's generic rate
— the quantity both the paper's bisection (Fig. 2) and our
brentq-based KKT solver drive to the common multiplier ``phi`` — plus
the full objective and gradient used by the NLP solver and by the
verification tests.

``T'`` is convex in the rate vector (each ``lambda'_i T'_i(lambda'_i)``
is a convex univariate function on its stability interval), so any
point satisfying the first-order condition is the global optimum.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exceptions import ParameterError
from .response import (
    Discipline,
    d_generic_response_time_drho,
    generic_response_time_rho,
)
from .server import BladeServerGroup

__all__ = [
    "marginal_cost",
    "marginal_cost_at_zero",
    "objective",
    "gradient",
    "server_marginal",
    "speed_gradient",
]


def server_marginal(
    m: int,
    xbar: float,
    special_rate: float,
    generic_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> float:
    """Per-server marginal ``T'_i + rho'_i dT'_i/d rho_i``.

    This is ``lambda' * dT'/d lambda'_i``: the rate of change of the
    *sum* ``sum_j lambda'_j T'_j`` with respect to server ``i``'s
    generic rate.  It is continuous, strictly increasing in
    ``generic_rate`` on the stability interval, and diverges at the
    saturation point — the properties the bisection searches rely on.
    """
    if generic_rate < 0.0:
        raise ParameterError(f"generic_rate must be >= 0, got {generic_rate}")
    rho = (generic_rate + special_rate) * xbar / m
    rho_g = generic_rate * xbar / m
    rho_s = special_rate * xbar / m
    t = generic_response_time_rho(m, xbar, rho, rho_s, discipline)
    dt = d_generic_response_time_drho(m, xbar, rho, rho_s, discipline)
    return t + rho_g * dt


def marginal_cost(
    m: int,
    xbar: float,
    special_rate: float,
    generic_rate: float,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> float:
    """The paper's ``partial T' / partial lambda'_i`` (Eq. (1) LHS).

    Equal to :func:`server_marginal` divided by the total generic rate
    ``lambda'``.  The optimizer equates this across servers.
    """
    if not (math.isfinite(total_rate) and total_rate > 0.0):
        raise ParameterError(f"total_rate must be > 0, got {total_rate!r}")
    return (
        server_marginal(m, xbar, special_rate, generic_rate, discipline)
        / total_rate
    )


def marginal_cost_at_zero(
    m: int,
    xbar: float,
    special_rate: float,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> float:
    """Marginal cost of the first infinitesimal unit of generic load.

    With ``lambda'_i = 0`` the ``rho'_i dT'_i/d rho`` term vanishes and
    the marginal reduces to ``T'_i(rho''_i) / lambda'`` — the response
    time the server would give a lone generic task on top of its
    special load.  A server only receives generic load when the group
    multiplier ``phi`` exceeds this threshold, which is how the
    water-filling structure (and servers parked at zero) emerges.
    """
    return marginal_cost(m, xbar, special_rate, 0.0, total_rate, discipline)


def objective(
    group: BladeServerGroup,
    generic_rates: Sequence[float],
    discipline: Discipline | str = Discipline.FCFS,
) -> float:
    """The objective ``T'`` for an explicit distribution vector.

    Delegates to :meth:`BladeServerGroup.mean_response_time`; provided
    as a free function for the NLP solver and tests.
    """
    return group.mean_response_time(generic_rates, discipline)


def gradient(
    group: BladeServerGroup,
    generic_rates: Sequence[float],
    discipline: Discipline | str = Discipline.FCFS,
) -> np.ndarray:
    """Analytic gradient ``[dT'/d lambda'_1, ..., dT'/d lambda'_n]``.

    Uses the paper's chain-rule decomposition
    ``dT'/d lambda'_i = (T'_i + rho'_i dT'_i/d rho_i) / lambda'``
    where ``lambda'`` is the (fixed) total of the supplied vector.
    """
    rates = np.asarray(generic_rates, dtype=float)
    if rates.shape != (group.n,):
        raise ParameterError(
            f"expected {group.n} generic rates, got shape {rates.shape}"
        )
    total = float(rates.sum())
    if total <= 0.0:
        raise ParameterError("total generic rate must be positive")
    out = np.empty(group.n)
    for i, srv in enumerate(group.servers):
        out[i] = marginal_cost(
            srv.size,
            srv.xbar(group.rbar),
            srv.special_rate,
            float(rates[i]),
            total,
            discipline,
        )
    return out


def speed_gradient(
    group: BladeServerGroup,
    generic_rates: Sequence[float],
    discipline: Discipline | str = Discipline.FCFS,
) -> np.ndarray:
    """Partial derivatives ``[dT'/ds_1, ..., dT'/ds_n]`` at fixed rates.

    ``s_j`` enters ``T'_j`` through ``xbar_j = rbar/s_j`` and so
    through ``rho_j`` and ``rho''_j``, which scale with it:

    .. math::

        \\frac{\\partial T'}{\\partial s_j}
          = -\\frac{\\lambda'_j}{\\lambda' s_j}
            \\left(T'_j + \\rho_j \\frac{\\partial T'_j}{\\partial \\rho_j}
            + \\rho''_j \\frac{T'_j - \\bar{x}_j}{1 - \\rho''_j}\\right),

    with the last term under the priority discipline only.  At the
    optimal rates this is the gradient of the optimal ``T'*`` (envelope
    theorem).  A parked server gets 0.
    """
    disc = Discipline.coerce(discipline)
    rates = np.asarray(generic_rates, dtype=float)
    total = float(rates.sum())
    out = np.zeros(group.n)
    for j, srv in enumerate(group.servers):
        rate = float(rates[j])
        if rate == 0.0:
            continue
        m = srv.size
        xbar = srv.xbar(group.rbar)
        rho = (rate + srv.special_rate) * xbar / m
        rho_s = srv.special_rate * xbar / m
        t = generic_response_time_rho(m, xbar, rho, rho_s, disc)
        scale = t + rho * d_generic_response_time_drho(m, xbar, rho, rho_s, disc)
        if disc is Discipline.PRIORITY:
            scale += rho_s * (t - xbar) / (1.0 - rho_s)
        out[j] = -rate / (total * srv.speed) * scale
    return out
