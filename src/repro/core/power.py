"""Joint speed scaling and load distribution under a power budget.

A natural extension the paper's conclusion gestures at (and the
author's later work pursues): blade speeds are not fixed — DVFS lets
the operator *choose* ``s_i``, but dynamic power grows superlinearly,
``P_i = m_i s_i^alpha`` with ``alpha`` typically around 3.  Given a
total power budget, what speed vector (and induced optimal load
distribution) minimizes the mean generic response time?

Formulation::

    minimize    T'(speeds)  =  min over rates of the paper's objective
    subject to  sum_i m_i s_i^alpha  <=  budget
                s_i  >=  s_min_i  (enough to keep every server stable
                                   under its own special load)

The inner problem is the paper's optimization (solved by the KKT
backend); the outer problem over speeds is smooth and is handed to
scipy's SLSQP with the power constraint.  By the envelope theorem the
gradient of the optimal ``T'`` over the speeds is the partial gradient
with the optimal rates frozen
(:func:`~repro.core.objective.speed_gradient`), so SLSQP gets an exact
gradient from the inner solve it already made.  Special-task rates are held
*fixed* while speeds vary (the dedicated workload does not change just
because the blades clock differently), so speeding a server up both
shortens its service times and frees capacity eaten by its preload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .exceptions import ConvergenceError, InfeasibleError, ParameterError
from .kkt import solve_kkt
from .objective import speed_gradient
from .response import Discipline
from .result import LoadDistributionResult
from .server import BladeServerGroup

__all__ = ["PowerAllocationResult", "optimize_speeds_under_power"]

#: Utilization every server must be able to reach below 1 at s_min.
_SPECIAL_HEADROOM = 0.98


@dataclass(frozen=True)
class PowerAllocationResult:
    """Outcome of the joint speed/load optimization."""

    #: Optimal blade speeds ``s_i``.
    speeds: np.ndarray
    #: Power drawn per server, ``m_i s_i^alpha``.
    powers: np.ndarray
    #: Total power (``<= budget``).
    total_power: float
    #: The inner load-distribution result at the optimal speeds.
    distribution: LoadDistributionResult
    #: SLSQP iterations of the outer problem.
    iterations: int

    @property
    def mean_response_time(self) -> float:
        """The achieved ``T'``."""
        return self.distribution.mean_response_time


def optimize_speeds_under_power(
    sizes: Sequence[int],
    special_rates: Sequence[float],
    total_rate: float,
    power_budget: float,
    alpha: float = 3.0,
    rbar: float = 1.0,
    discipline: Discipline | str = Discipline.FCFS,
    max_iter: int = 80,
) -> PowerAllocationResult:
    """Choose blade speeds under ``sum m_i s_i^alpha <= budget``.

    Parameters
    ----------
    sizes, special_rates, rbar:
        The fixed part of the fleet: blade counts, dedicated loads, and
        the mean execution requirement.
    total_rate:
        Generic arrival rate to be optimally distributed at every
        candidate speed vector.
    power_budget:
        Upper bound on ``sum_i m_i s_i^alpha``.
    alpha:
        Dynamic-power exponent (``> 1``; cubic by default).

    Raises
    ------
    InfeasibleError
        If even spending the whole budget cannot stabilize the fleet
        under ``special + generic`` load.
    """
    sizes_arr = np.asarray(sizes, dtype=int)
    specials = np.asarray(special_rates, dtype=float)
    n = sizes_arr.size
    if specials.shape != (n,):
        raise ParameterError(
            f"special_rates shape {specials.shape} != ({n},)"
        )
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ParameterError(f"alpha must be > 1, got {alpha!r}")
    if not (math.isfinite(power_budget) and power_budget > 0.0):
        raise ParameterError(f"power_budget must be > 0, got {power_budget!r}")
    if not (math.isfinite(total_rate) and total_rate > 0.0):
        raise ParameterError(f"total_rate must be > 0, got {total_rate!r}")

    # Minimum speeds: each server must absorb its own special load with
    # a little headroom even if it gets zero generic traffic.
    s_min = specials * rbar / (sizes_arr * _SPECIAL_HEADROOM)
    s_min = np.maximum(s_min, 1e-3)
    if float((sizes_arr * s_min**alpha).sum()) > power_budget:
        raise InfeasibleError(
            "power budget too small to stabilize the dedicated load",
            total_rate=total_rate,
            capacity=power_budget,
        )

    # SLSQP asks for the objective and its gradient at the same speeds;
    # a one-entry memo lets both read one inner solve.
    memo: dict[bytes, tuple[BladeServerGroup, LoadDistributionResult | None]] = {}

    def inner(speeds: np.ndarray):
        """The group at ``speeds`` and its optimal split (``None`` if saturated)."""
        key = speeds.tobytes()
        if key not in memo:
            group = BladeServerGroup.from_arrays(
                sizes_arr.tolist(),
                np.maximum(speeds, s_min).tolist(),
                specials.tolist(),
                rbar=rbar,
            )
            saturated = total_rate >= group.max_generic_rate
            res = None if saturated else solve_kkt(group, total_rate, discipline)
            memo.clear()
            memo[key] = (group, res)
        return memo[key]

    # Penalized objective: infeasible speed vectors (group saturated)
    # get a large, smoothly increasing penalty to push SLSQP back in.
    def objective(speeds: np.ndarray) -> float:
        _, res = inner(speeds)
        if res is None:
            group_cap = float(
                (sizes_arr * np.maximum(speeds, s_min) / rbar - specials).sum()
            )
            return 1e3 + 1e2 * max(0.0, total_rate - group_cap)
        return res.mean_response_time

    def jac(speeds: np.ndarray) -> np.ndarray:
        group, res = inner(speeds)
        if res is None:
            return -1e2 * sizes_arr / rbar
        return speed_gradient(group, res.generic_rates, discipline)

    # Start: spend the budget proportionally to blade count (uniform
    # speeds) — always inside the power constraint.
    s0 = (power_budget / float(sizes_arr.sum())) ** (1.0 / alpha)
    x0 = np.full(n, s0)

    res = minimize(
        objective,
        x0,
        method="SLSQP",
        jac=jac,
        bounds=[(float(lo), None) for lo in s_min],
        constraints=[
            {
                "type": "ineq",
                "fun": lambda s: power_budget - float((sizes_arr * s**alpha).sum()),
                "jac": lambda s: -(alpha * sizes_arr * s ** (alpha - 1.0)),
            }
        ],
        # Below ftol = 1e-9 SLSQP asks for decreases under the rounding
        # of T' and can stop at the optimum on a "positive directional
        # derivative for linesearch" (exit 8).
        options={"maxiter": max_iter, "ftol": 1e-9},
    )
    speeds = np.maximum(res.x, s_min)
    _, final = inner(speeds)
    if final is None or not res.success:
        raise ConvergenceError(
            f"outer speed optimization failed: {res.message}", best=speeds
        )
    powers = sizes_arr * speeds**alpha
    return PowerAllocationResult(
        speeds=speeds,
        powers=powers,
        total_power=float(powers.sum()),
        distribution=final,
        iterations=int(res.nit),
    )
