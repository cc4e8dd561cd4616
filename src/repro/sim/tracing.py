"""Simulation-time structured tracing.

A :class:`TraceLog` records timestamped, categorised events during a run.
It is the backbone of the paper-figure reproduction: replication protocols
emit phase-transition records into a trace, and the figure benchmarks
render and validate those records against the paper's diagrams.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

__all__ = ["TraceEvent", "TraceLog"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped record.

    Attributes
    ----------
    time:
        Simulated time at which the event was recorded.
    category:
        Free-form grouping key, e.g. ``"phase"``, ``"fd"``, ``"crash"``.
    source:
        Identifier of the component that recorded the event (node name,
        protocol name, ...).
    data:
        Arbitrary payload describing the event.
    """

    time: float
    category: str
    source: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v!r}" for k, v in sorted(self.data.items()))
        return f"[{self.time:9.3f}] {self.category}/{self.source}: {items}"


class TraceLog:
    """Append-only log of :class:`TraceEvent` records with query helpers.

    ``max_events`` turns the log into a ring buffer: once the bound is
    reached the oldest events are discarded (``dropped_events`` counts
    them), which keeps long soak runs at constant memory.  ``None``
    (default) keeps every event.

    Subscribers are *isolated*: the event is appended to the log before
    any subscriber runs, and a subscriber that raises is unsubscribed and
    its exception recorded in ``subscriber_errors`` — one broken observer
    cannot corrupt the log or starve other subscribers.
    """

    def __init__(self, sim: Any = None, max_events: Optional[int] = None) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self._sim = sim
        self.max_events = max_events
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        # Copy-on-write: ``subscribe`` and the error path replace the
        # tuple, so ``record`` iterates it without copying and a change
        # made mid-event takes effect from the next event.
        self._subscribers: Tuple[Callable[[TraceEvent], None], ...] = ()
        self.dropped_events = 0
        self.subscriber_errors: List[Exception] = []

    def record(self, category: str, source: str, **data: Any) -> TraceEvent:
        """Append an event stamped with the current simulated time."""
        time = self._sim.now if self._sim is not None else 0.0
        event = TraceEvent(time, category, source, data)
        if self.max_events is not None and len(self._events) == self.max_events:
            self.dropped_events += 1
        self._events.append(event)
        for subscriber in self._subscribers:
            try:
                subscriber(event)
            except Exception as exc:  # noqa: BLE001 - subscriber isolation
                self.subscriber_errors.append(exc)
                remaining = list(self._subscribers)
                try:
                    remaining.remove(subscriber)
                except ValueError:
                    pass
                self._subscribers = tuple(remaining)
        return event

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Invoke ``callback`` for every subsequently recorded event."""
        self._subscribers += (callback,)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events in insertion (time) order, as a copy."""
        return list(self._events)

    def select(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        **data_filters: Any,
    ) -> List[TraceEvent]:
        """Events matching all given filters.

        ``data_filters`` match against the event payload: an event is kept
        only if ``event.data[key] == value`` for every filter.
        """
        matches = []
        for event in self._events:
            if category is not None and event.category != category:
                continue
            if source is not None and event.source != source:
                continue
            if any(event.data.get(k) != v for k, v in data_filters.items()):
                continue
            matches.append(event)
        return matches

    def count(self, category: Optional[str] = None, **data_filters: Any) -> int:
        """Number of events matching the filters."""
        return len(self.select(category=category, **data_filters))

    def clear(self) -> None:
        """Discard all recorded events (subscribers are kept)."""
        self._events.clear()

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of the trace, newest last."""
        events = list(self._events)
        if limit is not None:
            events = events[-limit:]
        return "\n".join(repr(event) for event in events)
