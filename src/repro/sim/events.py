"""Deterministic discrete-event core.

A tiny priority-queue event engine: events fire in (time, kind priority,
insertion order) order, so identical runs replay identically.  Times are
integer nanoseconds throughout.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any

from repro.errors import SimulationError


class EventKind(enum.IntEnum):
    """Event types, ordered by processing priority at equal timestamps.

    Completions process before arrivals at the same instant so a device
    freed at time t can serve a query arriving at t.  Faults land after
    completions and retries but before arrivals: a batch that finishes
    at the very instant its device fails still counts (the result is
    already on the wire), while a query arriving at the fault instant
    sees the degraded cluster.
    """

    COMPLETION = 0
    RETRY = 1
    FAULT = 2
    ARRIVAL = 3


class EventQueue:
    """Min-heap of timestamped events with deterministic tie-breaking.

    Entries are plain tuples ``(time, kind_priority, seq, kind, payload)``
    so heap sifting compares in C; ``seq`` is unique, so comparison never
    reaches the (possibly incomparable) kind/payload slots.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, EventKind, Any]] = []
        self._seq = 0
        self._now = 0

    @property
    def now(self) -> int:
        """Time of the most recently popped event."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def pushed(self) -> int:
        """Events pushed so far (the last sequence number handed out)."""
        return self._seq

    def push(self, time: int, kind: EventKind, payload: Any = None) -> None:
        """Schedule an event; scheduling into the past is an error."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule {kind.name} at {time} before now ({self._now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, int(kind), self._seq, kind, payload))

    def pop(self) -> tuple[int, EventKind, Any]:
        """Remove and return the next (time, kind, payload)."""
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        time, _, _, kind, payload = heapq.heappop(self._heap)
        self._now = time
        return time, kind, payload
