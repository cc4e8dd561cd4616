"""Causal span tracing for simulated runs.

The paper's five-phase functional model is a span model in disguise:
every client request is a *trace* whose child spans are phase
executions, message flights, handler invocations and resource waits.
:class:`SpanTracer` records those spans with causal parent links so a
run can be *explained* — which replica spent how long in which phase of
which request, and why — instead of merely totalled.

Design constraints, both load-bearing:

* **Deterministic.**  Span ids come from a per-tracer counter and times
  from the simulated clock, so two same-seed runs produce byte-identical
  span sets (enforced by ``tests/test_obs.py``).  Nothing here touches
  wall clocks, RNGs or object identity.
* **Zero-cost when disabled.**  Instrumented layers hold an optional
  observer and guard every hook with a ``None`` check; no tracer object
  is ever constructed for an unobserved run.

Causality is propagated with an explicit context stack: the layer that
starts work on behalf of a span pushes it (client dispatch, message
handler entry), and spans started while it is on top become its
children.  Cross-node causality rides on the message envelope — the
network stamps each :class:`~repro.net.message.Message` with the span id
of its flight span, and the receiving node parents its handler span
under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Span", "SpanTracer", "SPAN", "INSTANT"]

SPAN = "span"
INSTANT = "instant"


@dataclass(slots=True)
class Span:
    """One timed, causally linked unit of work.

    Attributes
    ----------
    span_id:
        Tracer-local identifier, allocated in creation order from 1, so
        it doubles as the span's position in :attr:`SpanTracer.spans`.
    parent_id:
        Span this one is causally nested under (``None`` for roots).
    trace_id:
        The request this span belongs to (client request id), or ``""``
        for background activity such as heartbeats.
    name, category:
        Display name and grouping key (``"request"``, ``"message"``,
        ``"handle"``, ``"phase"``, ``"lock"``, ``"gc"``, ``"fd"``, ...).
    source:
        The node (or component) that did the work.
    start, end:
        Simulated times; ``end`` is ``None`` while the span is open.
    kind:
        ``"span"`` for an interval, ``"instant"`` for a point event.
    status:
        ``"ok"`` unless the work failed or was abandoned (e.g.
        ``"dropped:partition"`` for a lost message).
    attrs:
        Deterministically ordered payload of primitive values.
    """

    span_id: int
    parent_id: Optional[int]
    trace_id: str
    name: str
    category: str
    source: str
    start: float
    end: Optional[float] = None
    kind: str = SPAN
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __repr__(self) -> str:
        tail = f"..{self.end:.1f}" if self.end is not None else ".."
        return (
            f"<Span #{self.span_id} {self.category}/{self.name} "
            f"@{self.source} {self.start:.1f}{tail}>"
        )


class SpanTracer:
    """Collects :class:`Span` records against a simulated clock.

    ``clock`` is anything with a ``now`` attribute (the simulator); the
    tracer never advances it.  The context stack is synchronous-only by
    design: the discrete-event kernel runs one callback at a time, so a
    push/pop pair around a dispatch brackets exactly the work that
    dispatch caused directly.  Work it *scheduled* (timers, processes)
    runs later with an empty context and must be linked explicitly via
    ``parent_id`` if causality matters.

    ``spans`` is append-only and ids are dense from 1, so span ``i`` is
    ``spans[i - 1]`` — the list is its own id index.
    """

    def __init__(self, clock: Any = None) -> None:
        self._clock = clock if clock is not None else _StoppedClock()
        self._next_id = 1
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._finalized = False

    @property
    def now(self) -> float:
        return self._clock.now

    # -- recording ---------------------------------------------------------

    def start(
        self,
        name: str,
        category: str,
        source: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[int] = None,
        use_context: bool = True,
        **attrs: Any,
    ) -> Span:
        """Open a span; parent and trace default from the context stack."""
        return self._open(name, category, source, trace_id, parent_id,
                          use_context, attrs)

    def _open(
        self,
        name: str,
        category: str,
        source: str,
        trace_id: Optional[str],
        parent_id: Optional[int],
        use_context: bool,
        attrs: Dict[str, Any],
    ) -> Span:
        """:meth:`start` over an already-built ``attrs`` dict (hot path)."""
        spans = self.spans
        parent = None
        if parent_id is not None and 0 < parent_id <= len(spans):
            parent = spans[parent_id - 1]
        elif use_context and self._stack:
            parent = self._stack[-1]
        if parent is not None:
            if trace_id is None:
                trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            if trace_id is None:
                trace_id = ""
            parent_id = None
        span_id = self._next_id
        self._next_id = span_id + 1
        span = Span(span_id, parent_id, trace_id, name, category, source,
                    self._clock.now, None, SPAN, "ok", attrs)
        spans.append(span)
        return span

    def finish(self, span: Span, status: Optional[str] = None, **attrs: Any) -> None:
        """Close a span at the current simulated time (idempotent)."""
        if span.end is None:
            span.end = self._clock.now
        if status is not None:
            span.status = status
        if attrs:
            span.attrs.update(attrs)

    def instant(
        self,
        name: str,
        category: str,
        source: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Record a point event (start == end)."""
        span = self._open(name, category, source, trace_id, parent_id, True, attrs)
        span.end = span.start
        span.kind = INSTANT
        return span

    # -- causal context ---------------------------------------------------

    def push(self, span: Span) -> None:
        self._stack.append(span)

    def pop(self) -> None:
        self._stack.pop()

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- queries ------------------------------------------------------------

    def get(self, span_id: Optional[int]) -> Optional[Span]:
        spans = self.spans
        if span_id is None or not 0 < span_id <= len(spans):
            return None
        return spans[span_id - 1]

    def for_trace(self, trace_id: str) -> List[Span]:
        """Spans of one request, in (start time, creation) order."""
        return sorted(
            (s for s in self.spans if s.trace_id == trace_id),
            key=lambda s: (s.start, s.span_id),
        )

    def open_spans(self) -> List[Span]:
        """Spans not yet closed, in creation order (empty after finalize)."""
        return [span for span in self.spans if span.end is None]

    def phase_sequence(
        self, trace_id: str, source: Optional[str] = None
    ) -> List[str]:
        """Phase-span names of a request in time order (one trace's row)."""
        return [
            s.name
            for s in self.for_trace(trace_id)
            if s.category == "phase" and (source is None or s.source == source)
        ]

    def finalize(self) -> None:
        """Close every still-open span at the last simulated instant.

        Lazy techniques legitimately leave spans open (an AC phase whose
        propagation outlives the run); exports need every interval
        bounded.  Idempotent.
        """
        if self._finalized:
            return
        self._finalized = True
        horizon = self.now
        for span in self.spans:
            horizon = max(horizon, span.start, span.end or 0.0)
        for span in self.spans:
            if span.end is None:
                span.end = horizon
                if span.status == "ok":
                    span.status = "open"

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        open_count = sum(1 for s in self.spans if s.end is None)
        return f"<SpanTracer spans={len(self.spans)} open={open_count}>"


class _StoppedClock:
    """Clock of a tracer built without one: time stands still at 0.0."""

    __slots__ = ()
    now = 0.0
