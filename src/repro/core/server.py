"""Blade-server and server-group models.

These are the domain objects of the paper: a *blade server* ``S_i`` is a
chassis of ``m_i`` identical blades of speed ``s_i``, preloaded with a
dedicated Poisson stream of special tasks at rate ``lambda''_i``; a
*group* is the ordered collection ``S_1 .. S_n`` across which generic
load is distributed.  The group also fixes the mean task execution
requirement ``rbar`` shared by all tasks, so a server's mean service
time is ``xbar_i = rbar / s_i``.

The group exposes the quantities the optimizer needs:

* per-server spare capacity ``m_i / xbar_i - lambda''_i`` (the
  saturation point of ``lambda'_i`` from the paper's Section 5),
* the aggregate saturation point ``lambda'_max``,
* evaluation of the group-level mean generic response time ``T'`` for
  an arbitrary distribution vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .exceptions import InfeasibleError, ParameterError
from .response import Discipline, generic_response_time, generic_response_time_vec

__all__ = ["BladeServer", "BladeServerGroup"]


@dataclass(frozen=True)
class BladeServer:
    """A single heterogeneous blade server ``S_i``.

    Parameters
    ----------
    size:
        Number of identical server blades ``m_i`` (``>= 1``).
    speed:
        Execution speed ``s_i`` of each blade, in giga-instructions per
        second (``> 0``).
    special_rate:
        Arrival rate ``lambda''_i`` of the dedicated special-task
        stream (``>= 0``).
    name:
        Optional human-readable identifier used in reports.
    """

    size: int
    speed: float
    special_rate: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.size, (int, np.integer)) or isinstance(self.size, bool):
            raise ParameterError(f"size must be an int, got {self.size!r}")
        if self.size < 1:
            raise ParameterError(f"size must be >= 1, got {self.size}")
        if not (math.isfinite(self.speed) and self.speed > 0.0):
            raise ParameterError(f"speed must be finite and > 0, got {self.speed!r}")
        if not (math.isfinite(self.special_rate) and self.special_rate >= 0.0):
            raise ParameterError(
                f"special_rate must be finite and >= 0, got {self.special_rate!r}"
            )
        object.__setattr__(self, "size", int(self.size))

    def xbar(self, rbar: float) -> float:
        """Mean service time ``xbar = rbar / speed`` for requirement ``rbar``."""
        if not (math.isfinite(rbar) and rbar > 0.0):
            raise ParameterError(f"rbar must be finite and > 0, got {rbar!r}")
        return rbar / self.speed

    def service_capacity(self, rbar: float) -> float:
        """Total service rate ``m / xbar = m s / rbar`` of the server."""
        return self.size / self.xbar(rbar)

    def spare_capacity(self, rbar: float) -> float:
        """Saturation point of generic load: ``m/xbar - lambda''``.

        Any generic arrival rate at or above this value drives the
        server's utilization to one.
        """
        return self.service_capacity(rbar) - self.special_rate

    def special_utilization(self, rbar: float) -> float:
        """Utilization contributed by special tasks, ``rho'' = lambda'' xbar / m``."""
        return self.special_rate * self.xbar(rbar) / self.size


class _GroupArrays(NamedTuple):
    """The per-server parameter vectors of a group, built once, read-only."""

    sizes: np.ndarray
    speeds: np.ndarray
    special_rates: np.ndarray
    xbars: np.ndarray
    spare_capacities: np.ndarray


class BladeServerGroup:
    """An ordered group of heterogeneous blade servers sharing one workload.

    The group is immutable, so its per-server vectors (:attr:`sizes`,
    :attr:`speeds`, :attr:`special_rates`, :attr:`xbars`,
    :attr:`spare_capacities`) are built once, on first access, and
    returned as read-only views: repeated reads cost O(1), and an
    in-place write raises ``ValueError``.  Callers that need a mutable
    vector take a ``.copy()``.

    Parameters
    ----------
    servers:
        The blade servers ``S_1 .. S_n`` (at least one).
    rbar:
        Mean task execution requirement ``rbar`` in giga-instructions,
        shared by generic and special tasks (``> 0``).

    Raises
    ------
    ParameterError
        On empty groups, invalid ``rbar``, or a server whose special
        load alone saturates it (``rho''_i >= 1``).
    """

    def __init__(self, servers: Iterable[BladeServer], rbar: float = 1.0) -> None:
        self._servers: tuple[BladeServer, ...] = tuple(servers)
        if not self._servers:
            raise ParameterError("a BladeServerGroup needs at least one server")
        if not (math.isfinite(rbar) and rbar > 0.0):
            raise ParameterError(f"rbar must be finite and > 0, got {rbar!r}")
        self._rbar = float(rbar)
        for i, srv in enumerate(self._servers):
            if not isinstance(srv, BladeServer):
                raise ParameterError(
                    f"servers[{i}] must be a BladeServer, got {type(srv).__name__}"
                )
            if srv.special_utilization(self._rbar) >= 1.0:
                raise ParameterError(
                    f"server {i} ({srv.name or 'unnamed'}) is saturated by its "
                    f"special tasks alone: rho'' = "
                    f"{srv.special_utilization(self._rbar):.6g} >= 1"
                )

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        sizes: Sequence[int],
        speeds: Sequence[float],
        special_rates: Sequence[float] | None = None,
        rbar: float = 1.0,
    ) -> "BladeServerGroup":
        """Build a group from parallel parameter arrays.

        ``special_rates`` defaults to all-zero (no preloaded tasks).
        """
        sizes = list(sizes)
        speeds = list(speeds)
        if len(sizes) != len(speeds):
            raise ParameterError(
                f"sizes and speeds must have equal length, got "
                f"{len(sizes)} and {len(speeds)}"
            )
        if special_rates is None:
            special_rates = [0.0] * len(sizes)
        else:
            special_rates = list(special_rates)
            if len(special_rates) != len(sizes):
                raise ParameterError(
                    f"special_rates length {len(special_rates)} != n = {len(sizes)}"
                )
        servers = [
            BladeServer(int(m), float(s), float(l2), name=f"S{i+1}")
            for i, (m, s, l2) in enumerate(zip(sizes, speeds, special_rates))
        ]
        return cls(servers, rbar=rbar)

    @classmethod
    def with_special_fraction(
        cls,
        sizes: Sequence[int],
        speeds: Sequence[float],
        fraction: float = 0.3,
        rbar: float = 1.0,
    ) -> "BladeServerGroup":
        """Build a group preloaded to a fixed special-task utilization.

        Implements the paper's standard setup
        ``lambda''_i = y * m_i / xbar_i`` so that special tasks
        contribute exactly ``y`` (``fraction``) to every server's
        utilization.
        """
        if not (0.0 <= fraction < 1.0):
            raise ParameterError(f"fraction must be in [0, 1), got {fraction}")
        special = [
            fraction * int(m) * float(s) / rbar for m, s in zip(sizes, speeds)
        ]
        return cls.from_arrays(sizes, speeds, special, rbar=rbar)

    # -- container protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._servers)

    def __iter__(self) -> Iterator[BladeServer]:
        return iter(self._servers)

    def __getitem__(self, i: int) -> BladeServer:
        return self._servers[i]

    def __repr__(self) -> str:
        return (
            f"BladeServerGroup(n={len(self)}, rbar={self._rbar}, "
            f"total_blades={self.total_blades})"
        )

    # -- aggregate parameters ----------------------------------------------------

    @property
    def servers(self) -> tuple[BladeServer, ...]:
        """The servers of the group, in order."""
        return self._servers

    @property
    def rbar(self) -> float:
        """Mean task execution requirement shared by all tasks."""
        return self._rbar

    @property
    def n(self) -> int:
        """Number of blade servers in the group."""
        return len(self._servers)

    @cached_property
    def _arrays(self) -> _GroupArrays:
        sizes = np.array([s.size for s in self._servers], dtype=np.int64)
        speeds = np.array([s.speed for s in self._servers], dtype=float)
        special_rates = np.array([s.special_rate for s in self._servers], dtype=float)
        xbars = self._rbar / speeds
        arrays = _GroupArrays(
            sizes, speeds, special_rates, xbars, sizes / xbars - special_rates
        )
        for a in arrays:
            a.setflags(write=False)
        return arrays

    @property
    def sizes(self) -> np.ndarray:
        """Vector of server sizes ``m_i`` (read-only view)."""
        return self._arrays.sizes

    @property
    def speeds(self) -> np.ndarray:
        """Vector of blade speeds ``s_i`` (read-only view)."""
        return self._arrays.speeds

    @property
    def xbars(self) -> np.ndarray:
        """Vector of mean service times ``xbar_i = rbar / s_i`` (read-only view)."""
        return self._arrays.xbars

    @property
    def special_rates(self) -> np.ndarray:
        """Vector of special-task arrival rates ``lambda''_i`` (read-only view)."""
        return self._arrays.special_rates

    @property
    def special_utilizations(self) -> np.ndarray:
        """Vector of special-task utilizations ``rho''_i``."""
        return self.special_rates * self.xbars / self.sizes

    @property
    def total_blades(self) -> int:
        """Total number of blades ``m = sum m_i``."""
        return int(self.sizes.sum())

    @property
    def total_speed(self) -> float:
        """Aggregate processing speed ``sum m_i s_i``."""
        return float((self.sizes * self.speeds).sum())

    @property
    def spare_capacities(self) -> np.ndarray:
        """Per-server saturation points ``m_i/xbar_i - lambda''_i`` (read-only view)."""
        return self._arrays.spare_capacities

    @property
    def max_generic_rate(self) -> float:
        """The group saturation point ``lambda'_max = sum spare capacities``."""
        return float(self.spare_capacities.sum())

    # -- evaluation ---------------------------------------------------------------

    def utilizations(self, generic_rates: Sequence[float]) -> np.ndarray:
        """Total utilizations ``rho_i`` for a generic-load vector."""
        rates = self._as_rates(generic_rates)
        return (rates + self.special_rates) * self.xbars / self.sizes

    def mean_response_time(
        self,
        generic_rates: Sequence[float],
        discipline: Discipline | str = Discipline.FCFS,
    ) -> float:
        """Group-level mean generic response time ``T'``.

        .. math::

            T' = \\sum_i \\frac{\\lambda'_i}{\\lambda'} T'_i(\\lambda'_i)

        Servers receiving zero generic load contribute nothing (their
        weight is zero), which matches the paper's convention; the loop
        visits only the loaded ones, in index order.
        """
        rates = self._as_rates(generic_rates)
        total = float(rates.sum())
        if total <= 0.0:
            raise ParameterError("total generic rate must be positive")
        t = 0.0
        for i in np.flatnonzero(rates):
            srv = self._servers[i]
            t += (
                rates[i]
                / total
                * generic_response_time(
                    srv.size,
                    srv.xbar(self._rbar),
                    float(rates[i]),
                    srv.special_rate,
                    discipline,
                )
            )
        return t

    def per_server_response_times(
        self,
        generic_rates: Sequence[float],
        discipline: Discipline | str = Discipline.FCFS,
    ) -> np.ndarray:
        """Vector of ``T'_i`` for a generic-load vector (all servers).

        One vector pass of
        :func:`~repro.core.response.generic_response_time_vec`; within a
        few ulps of the scalar ``T'_i`` that :meth:`mean_response_time`
        sums.
        """
        return generic_response_time_vec(
            self.sizes,
            self.xbars,
            self._as_rates(generic_rates),
            self.special_rates,
            discipline,
        )

    def check_feasible(self, total_rate: float) -> None:
        """Raise :class:`InfeasibleError` unless ``total_rate < lambda'_max``."""
        if not (math.isfinite(total_rate) and total_rate > 0.0):
            raise ParameterError(
                f"total generic rate must be finite and > 0, got {total_rate!r}"
            )
        cap = self.max_generic_rate
        if total_rate >= cap:
            raise InfeasibleError(
                f"total generic rate {total_rate:.6g} >= group capacity {cap:.6g}",
                total_rate=total_rate,
                capacity=cap,
            )

    def _as_rates(self, generic_rates: Sequence[float]) -> np.ndarray:
        rates = np.asarray(generic_rates, dtype=float)
        if rates.shape != (self.n,):
            raise ParameterError(
                f"expected {self.n} generic rates, got shape {rates.shape}"
            )
        if np.any(~np.isfinite(rates)) or np.any(rates < 0.0):
            raise ParameterError("generic rates must be finite and >= 0")
        return rates
