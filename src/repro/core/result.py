"""Result container returned by every load-distribution solver."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .response import Discipline

__all__ = ["LoadDistributionResult"]


@dataclass(frozen=True)
class LoadDistributionResult:
    """Outcome of an optimal (or heuristic) load-distribution computation.

    Attributes
    ----------
    generic_rates:
        Per-server generic arrival rates ``lambda'_i`` (length ``n``).
    mean_response_time:
        The achieved mean generic-task response time ``T'``.
    phi:
        The Lagrange multiplier at the optimum — the common marginal
        cost ``dT'/d lambda'_i`` of every server carrying load.  ``nan``
        for heuristic policies that do not compute one.
    discipline:
        The queueing discipline the solution was computed for.
    method:
        Name of the solver/policy that produced the result.
    utilizations:
        Per-server total utilizations ``rho_i`` at the solution.
    per_server_response_times:
        Per-server generic response times ``T'_i`` at the solution,
        assembled in one vector pass
        (:func:`~repro.core.response.generic_response_time_vec`).  They
        agree with the scalar ``T'_i`` that ``mean_response_time`` sums
        to a few ulps, not bit for bit.
    iterations:
        Iteration count of the outer solver loop, when meaningful.
    converged:
        Whether the solver met its tolerance.
    """

    generic_rates: np.ndarray
    mean_response_time: float
    phi: float
    discipline: Discipline
    method: str
    utilizations: np.ndarray
    per_server_response_times: np.ndarray
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
        object.__setattr__(
            self, "utilizations", np.asarray(self.utilizations, dtype=float)
        )
        object.__setattr__(
            self,
            "per_server_response_times",
            np.asarray(self.per_server_response_times, dtype=float),
        )

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
