"""Sensitivity of the *optimized* ``T'`` to the model parameters.

The paper's Section 5 closes with a qualitative rule of thumb (grow
``m_i`` or ``s_i``, shrink ``rbar`` or ``lambda''_i``).  This module
makes it quantitative: the derivative of the optimal value
``T'*(theta)`` with respect to any model parameter ``theta``.

The key tool is the **envelope theorem**: at the optimum, the rates are
chosen so that feasible first-order reallocations do not change ``T'``;
therefore the total derivative of the optimal value with respect to a
parameter equals the *partial* derivative of the objective with the
rate vector held fixed at the optimum.  No re-optimization is needed —
which both makes the sensitivities cheap and gives the test suite a
sharp cross-check (re-optimized finite differences must agree).

Provided sensitivities (per unit of the parameter):

* ``d T'* / d lambda''_j`` — analytic, via the chain rule through
  ``rho_j`` (and ``rho''_j`` under priority).
* ``d T'* / d s_j`` — analytic, :func:`~repro.core.objective.speed_gradient`
  (``s_j`` moves ``xbar_j``, ``rho_j`` and ``rho''_j`` together).
* ``d T'* / d rbar`` — from the speed sensitivities: ``rbar`` scales
  every ``xbar_j = rbar/s_j``, so ``dT'*/drbar = -sum_j s_j dT'*/ds_j / rbar``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.objective import speed_gradient
from ..core.response import Discipline, d_generic_response_time_drho
from ..core.server import BladeServerGroup
from ..core.solvers import dispatch

__all__ = ["SensitivityReport", "optimal_value_sensitivities"]


@dataclass(frozen=True)
class SensitivityReport:
    """All envelope-theorem sensitivities at one operating point.

    Units: seconds of mean response time per unit of the parameter.
    Negative values mean the parameter *reduces* ``T'`` when increased.
    """

    #: The optimal T' the sensitivities are taken around.
    t_prime: float
    #: ``d T'* / d lambda''_j`` for each server (positive: preload hurts).
    d_special: np.ndarray
    #: ``d T'* / d s_j`` for each server (negative: speed helps).
    d_speed: np.ndarray
    #: ``d T'* / d rbar`` (positive: bigger tasks hurt).
    d_rbar: float

    def render(self) -> str:
        lines = [f"sensitivities of T'* = {self.t_prime:.6f}:"]
        for j in range(self.d_special.size):
            lines.append(
                f"  server {j + 1}: dT'/dlambda''_{j + 1} = "
                f"{self.d_special[j]:+.6f}, dT'/ds_{j + 1} = "
                f"{self.d_speed[j]:+.6f}"
            )
        lines.append(f"  dT'/drbar = {self.d_rbar:+.6f}")
        return "\n".join(lines)


def optimal_value_sensitivities(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
    method: str = "kkt",
) -> SensitivityReport:
    """Envelope-theorem sensitivities of the optimized ``T'``.

    Raises
    ------
    InfeasibleError
        If the operating point is infeasible.
    ParameterError
        On invalid inputs (via the solver).
    """
    disc = Discipline.coerce(discipline)
    res = dispatch(group, total_rate, disc, method)
    rates = res.generic_rates
    weights = res.fractions
    sizes = group.sizes
    speeds = group.speeds
    specials = group.special_rates
    rbar = group.rbar

    # Analytic d/d lambda''_j: only server j's term moves, through rho_j
    # (and rho''_j under priority, where T'_j has the 1/(1-rho''_j)
    # factor whose argument also shifts).
    d_special = np.zeros(group.n)
    for j in range(group.n):
        if rates[j] == 0.0:
            # A parked server contributes zero weight; an infinitesimal
            # preload change cannot move T' through it.
            continue
        m = int(sizes[j])
        xbar = rbar / float(speeds[j])
        rho = float(res.utilizations[j])
        rho_s = float(specials[j]) * xbar / m
        drho = xbar / m  # d rho_j / d lambda''_j
        dt = d_generic_response_time_drho(m, xbar, rho, rho_s, disc) * drho
        if disc is Discipline.PRIORITY:
            # Extra channel: the 1/(1-rho'') factor. T' = xbar(1 + W/(1-rho''))
            # with W the FCFS waiting factor; dT'/drho'' = (T' - xbar)/(1-rho'').
            t_j = float(res.per_server_response_times[j])
            dt += (t_j - xbar) / (1.0 - rho_s) * drho
        d_special[j] = float(weights[j]) * dt

    d_speed = speed_gradient(group, rates, disc)
    d_rbar = -float((speeds * d_speed).sum()) / rbar

    return SensitivityReport(
        t_prime=res.mean_response_time,
        d_special=d_special,
        d_speed=d_speed,
        d_rbar=d_rbar,
    )
