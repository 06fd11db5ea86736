"""Event types and the future-event list of the simulator.

A classic event-scheduling discrete-event kernel: the future-event list
is a binary heap ordered by ``(time, sequence)`` where the sequence
number both breaks ties deterministically and preserves insertion order
among simultaneous events — essential for reproducibility, since
floating-point event times can collide (e.g. zero-length services).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, NamedTuple

from ..core.exceptions import SimulationError

__all__ = ["EventType", "Event", "EventQueue"]


class EventType(enum.Enum):
    """Kinds of events processed by the engine."""

    GENERIC_ARRIVAL = "generic_arrival"
    SPECIAL_ARRIVAL = "special_arrival"
    DEPARTURE = "departure"
    END_OF_WARMUP = "end_of_warmup"
    END_OF_RUN = "end_of_run"
    #: Scheduled control action (payload: ``callable(sim, now)``) — used
    #: by the online runtime to inject failures, recoveries, and other
    #: operator actions at fixed simulation times.
    CONTROL = "control"
    #: Client-timeout probe (payload: the admitted :class:`SimTask`).
    #: Fires ``retry.timeout`` after admission; if the task has not
    #: completed by then, the retrying client re-offers a duplicate
    #: while the original copy keeps consuming service — the work
    #: amplification behind metastable retry storms.
    TIMEOUT_CHECK = "timeout_check"


class Event(NamedTuple):
    """A scheduled simulation event.

    Ordered as a tuple, so the heap compares events in C.  ``seq`` is
    unique per queue, so two events always differ by ``(time, seq)``
    and the comparison never reaches ``kind`` or ``payload``:
    heterogeneous payloads never get compared.
    """

    time: float
    seq: int
    kind: EventType
    payload: Any = None


class EventQueue:
    """Future-event list with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._last_time = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, time: float, kind: EventType, payload: Any = None) -> Event:
        """Insert an event; refuses scheduling into the past."""
        if time < self._last_time:
            raise SimulationError(
                f"attempt to schedule event at t={time} before current "
                f"time t={self._last_time}"
            )
        ev = Event(time, next(self._counter), kind, payload)
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise SimulationError("pop() on an empty event queue")
        ev = heapq.heappop(self._heap)
        self._last_time = ev.time
        return ev

    def peek_time(self) -> float:
        """Time of the earliest event without removing it."""
        if not self._heap:
            raise SimulationError("peek_time() on an empty event queue")
        return self._heap[0].time

    @property
    def now(self) -> float:
        """Time of the most recently popped event."""
        return self._last_time
