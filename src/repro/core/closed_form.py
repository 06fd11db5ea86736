"""Closed-form optima for single-blade servers (Theorems 1 and 3).

When every server has exactly one blade (``m_i = 1``), each station is
an M/M/1 queue and the Lagrange system collapses to algebra:

Theorem 1 (special tasks without priority)
    .. math::

        \\lambda'_i = \\frac{1}{\\bar x_i}\\left(1 - \\rho''_i
            - \\sqrt{\\frac{\\bar x_i (1-\\rho''_i)}{\\lambda' \\phi}}\\right),
        \\qquad
        \\phi = \\left(\\frac{\\frac{1}{\\sqrt{\\lambda'}}
            \\sum_i \\sqrt{(1-\\rho''_i)/\\bar x_i}}
            {\\sum_i (1-\\rho''_i)/\\bar x_i - \\lambda'}\\right)^2 .

Theorem 3 (special tasks with priority)
    ``lambda'_i`` follows the same pattern with the square-root argument
    replaced by ``(lambda' phi / xbar_i + rho''_i/(1 - rho''_i))^{-1}``;
    the multiplier ``phi`` is the root of the budget equation
    ``sum_i lambda'_i(phi) = lambda'``, found here with ``brentq``.

Caveat (documented divergence from the paper's presentation): the
closed forms assume an *interior* optimum — every server receives
strictly positive generic load.  At low ``lambda'`` a fast-but-loaded
group can push some ``lambda'_i`` negative, meaning the true optimum
parks those servers at zero.  Both solvers detect this and fall back to
an active-set iteration: drop the most negative server, re-solve the
closed form on the remainder, repeat.  This is exact (it is just KKT
complementary slackness) and keeps the closed forms usable across the
entire feasible range, not only the paper's example loads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from .exceptions import ConvergenceError, ParameterError
from .response import Discipline
from .result import LoadDistributionResult
from .server import BladeServerGroup

__all__ = ["solve_closed_form_fcfs", "solve_closed_form_priority", "solve_closed_form"]


def _require_single_blade(group: BladeServerGroup) -> None:
    if any(srv.size != 1 for srv in group.servers):
        raise ParameterError(
            "closed-form solvers require every server to have size m_i = 1"
        )


def solve_closed_form_fcfs(
    group: BladeServerGroup, total_rate: float
) -> LoadDistributionResult:
    """Theorem 1: closed-form optimum for all-M/M/1 groups, FCFS discipline."""
    _require_single_blade(group)
    group.check_feasible(total_rate)
    xbars = group.xbars
    rho2 = group.special_utilizations
    active = np.ones(group.n, dtype=bool)

    for _ in range(group.n):
        xb = xbars[active]
        r2 = rho2[active]
        denom = float(((1.0 - r2) / xb).sum()) - total_rate
        if denom <= 0.0:
            raise ConvergenceError(
                "active set lost feasibility; instance too close to saturation"
            )
        sqrt_phi = (
            (1.0 / math.sqrt(total_rate)) * float(np.sqrt((1.0 - r2) / xb).sum())
        ) / denom
        phi = sqrt_phi**2
        lam = (1.0 - r2 - np.sqrt(xb * (1.0 - r2) / (total_rate * phi))) / xb
        if np.all(lam >= 0.0):
            rates = np.zeros(group.n)
            rates[active] = lam
            return LoadDistributionResult.from_rates(
                group, rates, phi, Discipline.FCFS, "closed-form-theorem1"
            )
        # Active-set step: park the worst offender at zero and re-solve.
        idx_active = np.flatnonzero(active)
        worst = idx_active[int(np.argmin(lam))]
        active[worst] = False
        if not active.any():
            raise ConvergenceError("active set emptied; instance is degenerate")
    raise ConvergenceError("active-set iteration failed to terminate")


def solve_closed_form_priority(
    group: BladeServerGroup, total_rate: float
) -> LoadDistributionResult:
    """Theorem 3: closed-form optimum for all-M/M/1 groups, priority discipline.

    ``phi`` has no algebraic expression here; it is the root of the
    budget equation, located with Brent's method on a bracket built by
    doubling.
    """
    _require_single_blade(group)
    group.check_feasible(total_rate)
    xbars = group.xbars
    rho2 = group.special_utilizations
    active = np.ones(group.n, dtype=bool)

    for _ in range(group.n):
        xb = xbars[active]
        r2 = rho2[active]

        def lam_of_phi(phi: float) -> np.ndarray:
            inner = total_rate * phi / xb + r2 / (1.0 - r2)
            return (1.0 - r2 - np.sqrt(1.0 / inner)) / xb

        def budget(phi: float) -> float:
            return float(lam_of_phi(phi).sum()) - total_rate

        # For phi -> 0+, inner -> r2/(1-r2) and lam can be very negative;
        # budget is increasing in phi, so bracket by doubling.
        lo = 1e-12
        while budget(lo) > 0.0:
            lo *= 0.5
            if lo < 1e-300:
                raise ConvergenceError("failed to bracket phi from below")
        hi = max(2.0 * lo, 1e-6)
        for _ in range(4000):
            if budget(hi) >= 0.0:
                break
            hi *= 2.0
        else:
            raise ConvergenceError("failed to bracket phi from above")
        phi = float(brentq(budget, lo, hi, xtol=1e-15, rtol=8.9e-16))
        lam = lam_of_phi(phi)
        if np.all(lam >= 0.0):
            rates = np.zeros(group.n)
            rates[active] = lam
            return LoadDistributionResult.from_rates(
                group, rates, phi, Discipline.PRIORITY, "closed-form-theorem3"
            )
        idx_active = np.flatnonzero(active)
        worst = idx_active[int(np.argmin(lam))]
        active[worst] = False
        if not active.any():
            raise ConvergenceError("active set emptied; instance is degenerate")
    raise ConvergenceError("active-set iteration failed to terminate")


def solve_closed_form(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> LoadDistributionResult:
    """Dispatch to Theorem 1 or Theorem 3 based on the discipline."""
    disc = Discipline.coerce(discipline)
    if disc is Discipline.FCFS:
        return solve_closed_form_fcfs(group, total_rate)
    return solve_closed_form_priority(group, total_rate)
