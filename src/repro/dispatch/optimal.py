"""The optimal policy: a thin policy-interface adapter over the solvers."""

from __future__ import annotations

import numpy as np

from ..core.response import Discipline
from ..core.result import LoadDistributionResult
from ..core.server import BladeServerGroup
from ..core.solvers import dispatch
from .base import LoadDistributionPolicy

__all__ = ["OptimalPolicy"]


class OptimalPolicy(LoadDistributionPolicy):
    """The paper's optimal load distribution as a policy object.

    Parameters
    ----------
    method:
        Solver backend passed to :func:`~repro.core.solvers.dispatch`
        (default ``"auto"``).
    """

    name = "optimal"

    def __init__(self, method: str = "auto") -> None:
        self.method = method

    def rates(
        self,
        group: BladeServerGroup,
        total_rate: float,
        discipline: Discipline | str = Discipline.FCFS,
    ) -> np.ndarray:
        return dispatch(
            group, total_rate, discipline, self.method
        ).generic_rates

    def distribute(
        self,
        group: BladeServerGroup,
        total_rate: float,
        discipline: Discipline | str = Discipline.FCFS,
    ) -> LoadDistributionResult:
        # Bypass the generic wrapper to preserve the solver's phi,
        # iteration count, and method name in the result.
        return dispatch(
            group, total_rate, discipline, self.method
        )
