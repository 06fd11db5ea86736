"""Policy interface for static load distribution.

A *policy* maps a :class:`~repro.core.server.BladeServerGroup` and a
total generic arrival rate to a per-server rate vector.  The optimal
policy wraps the paper's solver; the baselines implement the heuristics
a practitioner would reach for without the queueing analysis, so the
benchmarks can quantify what the optimization actually buys.

Every policy returns a :class:`~repro.core.result.LoadDistributionResult`
(with ``phi = nan`` for heuristics) so downstream code — the analytic
evaluator, the simulator, the report builders — treats optimal and
heuristic splits uniformly.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.exceptions import InfeasibleError, ParameterError
from ..core.response import Discipline
from ..core.result import LoadDistributionResult
from ..core.server import BladeServerGroup

__all__ = ["LoadDistributionPolicy"]


class LoadDistributionPolicy(abc.ABC):
    """Base class for static load-distribution policies."""

    #: Registry name of the policy; subclasses must override.
    name: str = ""

    @abc.abstractmethod
    def rates(
        self,
        group: BladeServerGroup,
        total_rate: float,
        discipline: Discipline | str = Discipline.FCFS,
    ) -> np.ndarray:
        """Return the per-server generic rates ``lambda'_i``.

        Must sum to ``total_rate`` and keep every server strictly
        stable.  Implementations may raise
        :class:`~repro.core.exceptions.InfeasibleError` when a split
        satisfying both is impossible for this heuristic (even if the
        instance is feasible for the optimal policy).
        """

    def distribute(
        self,
        group: BladeServerGroup,
        total_rate: float,
        discipline: Discipline | str = Discipline.FCFS,
    ) -> LoadDistributionResult:
        """Evaluate the policy and package the analytic performance."""
        disc = Discipline.coerce(discipline)
        group.check_feasible(total_rate)
        rates = np.asarray(
            self.rates(group, total_rate, disc), dtype=float
        )
        self._validate_rates(group, total_rate, rates)
        return LoadDistributionResult.from_rates(
            group, rates, float("nan"), disc, self.name
        )

    def _validate_rates(
        self, group: BladeServerGroup, total_rate: float, rates: np.ndarray
    ) -> None:
        if rates.shape != (group.n,):
            raise ParameterError(
                f"{self.name}: expected {group.n} rates, got shape {rates.shape}"
            )
        if np.any(rates < 0.0) or not np.all(np.isfinite(rates)):
            raise ParameterError(f"{self.name}: rates must be finite and >= 0")
        if not np.isclose(rates.sum(), total_rate, rtol=1e-9, atol=1e-9):
            raise ParameterError(
                f"{self.name}: rates sum to {rates.sum():.9g}, "
                f"expected {total_rate:.9g}"
            )
        over = rates >= group.spare_capacities
        if np.any(over):
            idx = int(np.flatnonzero(over)[0])
            raise InfeasibleError(
                f"{self.name}: server {idx} saturated "
                f"(rate {rates[idx]:.6g} >= capacity "
                f"{group.spare_capacities[idx]:.6g})",
                total_rate=total_rate,
                capacity=float(group.spare_capacities[idx]),
            )
