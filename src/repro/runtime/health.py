"""Server health tracking and failure-aware capacity planning.

A live cluster loses and regains servers.  :class:`HealthTracker` keeps
the up/down state of every server in a :class:`BladeServerGroup`,
materializes the *active subgroup* the optimizer should solve over, and
maps active-space solutions back to full-group routing weights (down
servers get weight zero).

Failure semantics are *routing drains*: a down server stops receiving
new generic tasks immediately; work already queued there finishes (the
transient the closed-loop tests ride out).  Its dedicated special
stream is pinned to the hardware and is outside the dispatcher's
control, so it is carried into the active subgroup unchanged on
recovery.

:meth:`HealthTracker.plan` is the graceful-degradation policy: when the
offered rate would push the surviving servers past a configurable
utilization cap — or past saturation outright, where the optimizer
would raise :class:`~repro.core.exceptions.InfeasibleError` — the plan
admits only what fits and reports the excess as a shed fraction instead
of crashing the control loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.exceptions import ClusterDownError, ParameterError
from ..core.server import BladeServerGroup

__all__ = ["CapacityPlan", "HealthTracker"]


@dataclass(frozen=True)
class CapacityPlan:
    """How much of the offered load the surviving capacity absorbs.

    Attributes
    ----------
    offered_rate:
        The estimated total generic rate ``lambda'``.
    admitted_rate:
        The rate actually handed to the optimizer (``<= offered``).
    shed_fraction:
        Fraction of arrivals to drop (``1 - admitted / offered``).
    capacity:
        Saturation point ``lambda'_max`` of the active subgroup.
    degraded:
        Whether any load is being shed.
    """

    offered_rate: float
    admitted_rate: float
    shed_fraction: float
    capacity: float
    degraded: bool


class HealthTracker:
    """Up/down state of a blade-server group, with shrink/restore.

    Parameters
    ----------
    group:
        The full (design-time) server group.
    utilization_cap:
        Maximum fraction of the active subgroup's saturation point the
        planner will admit (strictly between 0 and 1; the response-time
        curve diverges at 1, so running *at* capacity is never sane).
    """

    def __init__(self, group: BladeServerGroup, utilization_cap: float = 0.95) -> None:
        if not (0.0 < utilization_cap < 1.0):
            raise ParameterError(
                f"utilization_cap must be in (0, 1), got {utilization_cap!r}"
            )
        self._group = group
        self._cap = float(utilization_cap)
        self._up = [True] * group.n
        self._rebuild()

    # -- state ----------------------------------------------------------------------

    @property
    def group(self) -> BladeServerGroup:
        """The full group, failures ignored."""
        return self._group

    @property
    def utilization_cap(self) -> float:
        """The planner's admission cap."""
        return self._cap

    @property
    def up_mask(self) -> np.ndarray:
        """Boolean vector: ``True`` where the server is up."""
        return np.array(self._up, dtype=bool)

    @property
    def n_up(self) -> int:
        """Number of servers currently up."""
        return sum(self._up)

    @property
    def active_indices(self) -> tuple[int, ...]:
        """Full-group indices of the up servers, in order."""
        return tuple(self._active_array.tolist())

    @property
    def active_index_array(self) -> np.ndarray:
        """:attr:`active_indices` as a read-only integer array, built once
        per topology change, for scattering and gathering."""
        return self._active_array

    def is_up(self, index: int) -> bool:
        """Whether server ``index`` is up."""
        return self._up[index]

    # -- transitions ------------------------------------------------------------------

    def mark_down(self, index: int) -> bool:
        """Record a failure; returns ``True`` if the state changed."""
        self._check_index(index)
        if not self._up[index]:
            return False
        self._up[index] = False
        self._rebuild()
        return True

    def mark_up(self, index: int) -> bool:
        """Record a recovery; returns ``True`` if the state changed."""
        self._check_index(index)
        if self._up[index]:
            return False
        self._up[index] = True
        self._rebuild()
        return True

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self._group.n):
            raise ParameterError(
                f"server index {index} out of range [0, {self._group.n})"
            )

    def _rebuild(self) -> None:
        up = np.array(self._up, dtype=bool)
        self._active_array = np.flatnonzero(up)
        self._active_array.setflags(write=False)
        self._down = tuple(np.flatnonzero(~up).tolist())
        if not self._active_array.size:
            self._active = None
        elif not self._down:
            self._active = self._group
        else:
            self._active = self._group.subgroup(self._active_array)

    def state_dict(self) -> dict:
        """JSON-safe snapshot: the sorted indices of the down servers."""
        return {"down": list(self._down)}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (rebuilds the subgroup)."""
        up = [True] * self._group.n
        for index in state["down"]:
            self._check_index(index)
            up[index] = False
        self._up = up
        self._rebuild()

    # -- solver-facing views ------------------------------------------------------------

    @property
    def all_down(self) -> bool:
        """Whether every server is currently marked down."""
        return self._active is None

    def active_group(self) -> BladeServerGroup:
        """The subgroup of up servers.

        Raises
        ------
        ClusterDownError
            When every server is down.  Callers that can degrade (the
            resilience supervisor) catch this and shed 100% of the
            generic load; it is not a parameter mistake.
        """
        if self._active is None:
            raise ClusterDownError(
                "no server is up; cannot form an active group",
                n_servers=self._group.n,
            )
        return self._active

    def fingerprint(self) -> tuple[int, ...]:
        """Hashable identity of the active configuration.

        Two health states with the same fingerprint pose the identical
        optimization instance, which is what the controller's LRU cache
        keys on.  It is the sorted tuple of down-server indices: the
        group never changes, so the down-set alone names the active
        subgroup.  It is built once per topology change (``mark_down``,
        ``mark_up``, ``load_state``) and is O(number of servers down)
        to hash and to compare.
        """
        return self._down

    def expand(self, active_rates: np.ndarray) -> np.ndarray:
        """Map an active-space rate/weight vector to full-group space.

        Down servers receive exactly zero, so any router built on the
        expanded vector starves them.
        """
        rates = np.asarray(active_rates, dtype=float)
        if rates.shape != self._active_array.shape:
            raise ParameterError(
                f"expected {self._active_array.size} active rates, "
                f"got shape {rates.shape}"
            )
        full = np.zeros(self._group.n)
        full[self._active_array] = rates
        return full

    # -- degradation planning -------------------------------------------------------------

    def plan(self, offered_rate: float) -> CapacityPlan:
        """Split the offered rate into admitted load and shed excess."""
        if not (math.isfinite(offered_rate) and offered_rate > 0.0):
            raise ParameterError(
                f"offered_rate must be finite and > 0, got {offered_rate!r}"
            )
        capacity = self.active_group().max_generic_rate
        admissible = self._cap * capacity
        if offered_rate <= admissible:
            return CapacityPlan(
                offered_rate=offered_rate,
                admitted_rate=offered_rate,
                shed_fraction=0.0,
                capacity=capacity,
                degraded=False,
            )
        return CapacityPlan(
            offered_rate=offered_rate,
            admitted_rate=admissible,
            shed_fraction=1.0 - admissible / offered_rate,
            capacity=capacity,
            degraded=True,
        )
