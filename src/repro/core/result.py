"""Result container returned by every load-distribution solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .response import Discipline

if TYPE_CHECKING:
    from .server import BladeServerGroup

__all__ = ["LoadDistributionResult"]


@dataclass(frozen=True)
class LoadDistributionResult:
    """Outcome of an optimal (or heuristic) load-distribution computation.

    Build one with :meth:`from_rates`: the split ``lambda'_i`` and the
    multiplier ``phi`` describe the optimum, and everything else is a
    function of the split on the group it was computed over.

    Attributes
    ----------
    generic_rates:
        Per-server generic arrival rates ``lambda'_i`` (length ``n``).
    mean_response_time:
        The achieved mean generic-task response time ``T'``: the scalar
        sum :meth:`BladeServerGroup.mean_response_time
        <repro.core.server.BladeServerGroup.mean_response_time>`.
    phi:
        The Lagrange multiplier at the optimum — the common marginal
        cost ``dT'/d lambda'_i`` of every server carrying load.  ``nan``
        for heuristic policies that do not compute one.
    discipline:
        The queueing discipline the solution was computed for.
    method:
        Name of the solver/policy that produced the result.
    group:
        The group the split was computed over: the whole group, a
        shard, or the active subgroup of the servers that are up.  It
        takes no part in equality and is left out of the repr.
    iterations:
        Iteration count of the outer solver loop, when meaningful.
    converged:
        Whether the solver met its tolerance.
    utilizations:
        Per-server total utilizations ``rho_i`` at the solution
        (computed from :attr:`group` on first read, then cached).
    per_server_response_times:
        Per-server generic response times ``T'_i`` at the solution,
        computed from :attr:`group` on first read, then cached, in one
        vector pass
        (:func:`~repro.core.response.generic_response_time_vec`).  They
        agree with the scalar ``T'_i`` that ``mean_response_time`` sums
        to a few ulps, not bit for bit.
    """

    generic_rates: np.ndarray
    mean_response_time: float
    phi: float
    discipline: Discipline
    method: str
    group: BladeServerGroup = field(compare=False, repr=False)
    iterations: int = 0
    converged: bool = True
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Built-in floats, not numpy scalars: keeps reprs clean and the
        # public API independent of the numpy version.
        object.__setattr__(
            self, "mean_response_time", float(self.mean_response_time)
        )
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(
            self, "generic_rates", np.asarray(self.generic_rates, dtype=float)
        )

    @staticmethod
    def from_rates(
        group: BladeServerGroup, rates, phi: float, disc: Discipline, method: str,
        *, iterations: int = 0, converged: bool = True, metadata: dict | None = None,
    ) -> "LoadDistributionResult":
        """The split ``rates`` of ``group`` under ``disc``: ``T'`` is
        computed here, ``rho_i`` and ``T'_i`` on first read."""
        return LoadDistributionResult(
            rates, group.mean_response_time(rates, disc), phi, disc, method, group,
            iterations, converged, {} if metadata is None else metadata,
        )

    @cached_property
    def utilizations(self) -> np.ndarray:
        return self.group.utilizations(self.generic_rates)

    @cached_property
    def per_server_response_times(self) -> np.ndarray:
        return self.group.per_server_response_times(self.generic_rates, self.discipline)

    @property
    def n(self) -> int:
        """Number of servers in the solution."""
        return int(self.generic_rates.shape[0])

    @property
    def total_rate(self) -> float:
        """Total generic arrival rate ``sum_i lambda'_i``."""
        return float(self.generic_rates.sum())

    @property
    def fractions(self) -> np.ndarray:
        """Routing probabilities ``lambda'_i / lambda'`` (sum to one)."""
        total = self.total_rate
        if total <= 0.0:
            return np.zeros_like(self.generic_rates)
        return self.generic_rates / total

    def summary(self) -> str:
        """Human-readable multi-line summary mirroring the paper's tables."""
        lines = [
            f"method={self.method} discipline={self.discipline.value} "
            f"T'={self.mean_response_time:.7f} phi={self.phi:.7g} "
            f"lambda'={self.total_rate:.7g}",
            f"{'i':>3} {'lambda_i':>12} {'rho_i':>10} {'T_i':>10}",
        ]
        for i in range(self.n):
            lines.append(
                f"{i + 1:>3} {self.generic_rates[i]:>12.7f} "
                f"{self.utilizations[i]:>10.7f} "
                f"{self.per_server_response_times[i]:>10.7f}"
            )
        return "\n".join(lines)
