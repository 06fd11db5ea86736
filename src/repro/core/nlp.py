"""Direct nonlinear-programming solver (scipy SLSQP) for cross-checking.

Minimizes ``T'(lambda'_1..lambda'_n)`` directly on the simplex

.. math::

    \\{\\lambda' : \\textstyle\\sum_i \\lambda'_i = \\lambda',\\;
      0 \\le \\lambda'_i \\le (1-\\epsilon)(m_i/\\bar x_i - \\lambda''_i)\\}

using the analytic gradient from :mod:`repro.core.objective`.  Because
the objective is convex on this set, SLSQP's local optimum is the
global one, giving a third independent confirmation of the paper's
bisection result (the ablation benchmark quantifies the accuracy/speed
trade-off of all three solvers).

A feasible, strictly interior starting point is built by splitting the
load proportionally to spare capacity — the ``proportional`` baseline
policy — which keeps every server away from its saturation pole where
the objective is ill-conditioned.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .exceptions import ConvergenceError, ParameterError
from .objective import gradient
from .response import Discipline
from .result import LoadDistributionResult
from .server import BladeServerGroup

__all__ = ["solve_nlp"]

_BOUND_MARGIN = 1e-9


def solve_nlp(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
    ftol: float = 1e-14,
    max_iter: int = 500,
) -> LoadDistributionResult:
    """Optimal load distribution via SLSQP on the constrained simplex.

    Raises
    ------
    ConvergenceError
        If SLSQP reports failure (carries the best iterate in ``best``).
    """
    disc = Discipline.coerce(discipline)
    group.check_feasible(total_rate)
    if ftol <= 0.0:
        raise ParameterError(f"ftol must be > 0, got {ftol}")
    caps = group.spare_capacities
    n = group.n

    # Strictly interior start: proportional to spare capacity.
    x0 = caps / caps.sum() * total_rate

    def fun(x: np.ndarray) -> float:
        # Clip defensively: SLSQP may probe epsilon outside the bounds.
        x = np.clip(x, 0.0, caps * (1.0 - _BOUND_MARGIN))
        # Servers at exactly zero are fine: they carry zero weight.
        return group.mean_response_time(x, disc)

    def jac(x: np.ndarray) -> np.ndarray:
        x = np.clip(x, 0.0, caps * (1.0 - _BOUND_MARGIN))
        return gradient(group, x, disc)

    res = minimize(
        fun,
        x0,
        jac=jac,
        method="SLSQP",
        bounds=[(0.0, float(c) * (1.0 - _BOUND_MARGIN)) for c in caps],
        constraints=[
            {
                "type": "eq",
                "fun": lambda x: float(x.sum()) - total_rate,
                "jac": lambda x: np.ones(n),
            }
        ],
        options={"ftol": ftol, "maxiter": max_iter},
    )
    rates = np.clip(res.x, 0.0, caps * (1.0 - _BOUND_MARGIN))
    s = rates.sum()
    if s > 0.0:
        rates = rates * (total_rate / s)
    if not res.success:
        raise ConvergenceError(
            f"SLSQP failed: {res.message}", best=rates
        )
    # At the optimum every loaded server sits at the common marginal
    # phi while unloaded servers sit above it, so phi is the minimum.
    phi = float(np.min(gradient(group, rates, disc)))
    return LoadDistributionResult.from_rates(
        group, rates, phi, disc, "slsqp",
        iterations=int(res.nit), converged=bool(res.success),
    )
