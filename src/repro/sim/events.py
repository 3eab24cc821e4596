"""Minimal discrete-event simulation core.

A classic event-queue kernel: events are (time, seq) ordered — equal
times run in the order they were scheduled — and callbacks may schedule further events.  Deliberately small — the cluster
execution engine (``repro.sim.engine``) is its only in-repo client, but the
kernel is generic and tested independently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "Simulator"]


@dataclass(order=True)
class Event:
    """One scheduled callback; ordering is (time, seq)."""

    time: float
    seq: int
    callback: Callable[["Simulator"], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class Simulator:
    """Event-driven simulator with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._seq = 0
        self.now = 0.0
        self.processed = 0

    def schedule(
        self,
        delay: float,
        callback: Callable[["Simulator"], None],
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        event = Event(time=self.now + delay, seq=self._seq, callback=callback)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: Event) -> None:
        """Mark an event as cancelled (lazily skipped when popped)."""
        event.cancelled = True

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Process events until the queue empties (or ``until``/limit).

        Returns the simulation end time.
        """
        while self._queue:
            if self.processed >= max_events:
                raise RuntimeError(f"exceeded {max_events} events; runaway simulation?")
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if until is not None and event.time > until:
                heapq.heappush(self._queue, event)  # put back; caller may resume
                self.now = until
                return self.now
            if event.time < self.now - 1e-12:
                raise RuntimeError("event scheduled in the past (clock corruption)")
            self.now = event.time
            self.processed += 1
            event.callback(self)
        return self.now

    @property
    def pending(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)
