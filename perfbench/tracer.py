"""In-memory span recorder with per-layer self-time accounting.

A span is one call that crossed a layer boundary: ``(id, parent, layer,
name, start, end)``.  Calls that stay inside the current layer are only
counted, not timed, so the tracer reads the clock only where the layer
changes.  A span's self time is its duration minus the time its child
spans cover; it is accumulated online per entry point as spans close,
and :func:`self_times` recomputes it from a span list so the two can be
checked against each other.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, str, str, float, float]  # id, parent, layer, name, start, end

NO_PARENT = 0
# Per-entry-point accounting: [calls, self seconds, spans, child spans].
CALLS, SELF_S, SPANS, CHILDREN = 0, 1, 2, 3


class Tracer:
    """Span stack, bounded span log and per-entry-point accounting.

    ``keep_spans`` bounds how many closed spans are held for the trace
    file; accounting (calls, spans and self time per entry point) always
    covers every call.  ``clock`` is injectable so tests can drive exact
    times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_spans: int = 50_000) -> None:
        self.clock = clock
        self.keep_spans = keep_spans
        self.layer: Optional[str] = None  # layer of the innermost open span
        self.spans: List[Span] = []
        self.entries: Dict[str, Tuple[str, list]] = {}  # name -> (layer, stats)
        self.next_id = 1
        # Open spans, innermost last: [child seconds, span id, child spans, ...].
        self._stack: List[list] = []

    def entry(self, layer: str, name: str) -> list:
        """The accounting list of one entry point, created on first use."""
        if name not in self.entries:
            self.entries[name] = (layer, [0, 0.0, 0, 0])
        return self.entries[name][1]

    def wrap(self, fn: Callable, layer: str, name: str,
             adopt: Optional[Callable[[tuple], tuple]] = None) -> Callable:
        """``fn`` counted on every call and timed when it enters ``layer``.

        ``adopt`` may rewrite the positional arguments before the call.
        """
        stats = self.entry(layer, name)
        stack, clock, spans, keep = self._stack, self.clock, self.spans, self.keep_spans
        tracer = self

        def traced(*args, **kwargs):
            stats[CALLS] += 1
            if adopt is not None:
                args = adopt(args)
            outer = tracer.layer
            if outer == layer:
                return fn(*args, **kwargs)
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            parent = stack[-1][1] if stack else NO_PARENT
            frame = [0.0, span_id, 0]
            stack.append(frame)
            tracer.layer = layer
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.layer = outer
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                    stack[-1][2] += 1
                stats[SELF_S] += duration - frame[0]
                stats[SPANS] += 1
                stats[CHILDREN] += frame[2]
                if len(spans) < keep:
                    spans.append((span_id, parent, layer, name, start, end))

        return traced

    def enter(self, layer: str, name: str) -> None:
        """Open a span explicitly (for code that cannot be wrapped)."""
        stack = self._stack
        span_id = self.next_id
        self.next_id = span_id + 1
        parent = stack[-1][1] if stack else NO_PARENT
        stack.append([0.0, span_id, 0, parent, layer, name, self.layer, self.clock()])
        self.layer = layer

    def exit(self) -> None:
        """Close the span opened by the matching :meth:`enter`."""
        end = self.clock()
        child, span_id, children, parent, layer, name, outer, start = self._stack.pop()
        self.layer = outer
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
            self._stack[-1][2] += 1
        stats = self.entry(layer, name)
        stats[SELF_S] += duration - child
        stats[SPANS] += 1
        stats[CHILDREN] += children
        if len(self.spans) < self.keep_spans:
            self.spans.append((span_id, parent, layer, name, start, end))

    def reset(self) -> None:
        """Forget everything recorded so far (no span may be open)."""
        if self._stack:
            raise RuntimeError("cannot reset with open spans")
        self.spans.clear()
        for _layer, stats in self.entries.values():
            stats[:] = [0, 0.0, 0, 0]  # wrappers hold these lists: reset in place

    @property
    def span_count(self) -> int:
        return sum(stats[SPANS] for _layer, stats in self.entries.values())

    def calls(self) -> Dict[str, int]:
        return {name: stats[CALLS] for name, (_l, stats) in self.entries.items()}

    def layer_totals(self, column: int) -> Dict[str, float]:
        """One accounting column summed per layer over its entry points."""
        totals: Dict[str, float] = {}
        for layer, stats in self.entries.values():
            totals[layer] = totals.get(layer, 0) + stats[column]
        return totals

    def layer_self(self) -> Dict[str, float]:
        """Measured self seconds per layer, tracing cost included."""
        return self.layer_totals(SELF_S)

    def corrected_self(self, cost: Dict[str, float]) -> Dict[str, float]:
        """Self seconds per layer with the tracer's own cost taken out.

        ``cost`` is :func:`calibrate`'s result: what one counted call and
        one span add to the callee's and to the caller's self time.
        """
        calls = self.layer_totals(CALLS)
        spans = self.layer_totals(SPANS)
        children = self.layer_totals(CHILDREN)
        corrected = {}
        for layer, seconds in self.layer_self().items():
            inner_calls = max(0, calls[layer] - spans[layer])
            seconds -= (cost["call"] * inner_calls + cost["callee"] * spans[layer]
                        + cost["caller"] * children[layer])
            corrected[layer] = max(0.0, seconds)
        return corrected


def calibrate(clock: Callable[[], float] = time.perf_counter,
              loops: int = 100_000) -> Dict[str, float]:
    """Seconds the tracer adds per call, measured on no-op calls.

    ``call``: a counted call that stays in its layer; ``callee`` and
    ``caller``: the parts of one span's cost that land in the called
    and in the calling layer's self time.
    """
    def noop(a, b):
        return None

    started = clock()
    for _ in range(loops):
        noop(1, 2)
    bare = clock() - started  # loop plus the call itself

    def measure(callee_layer: str) -> Tuple[float, float]:
        tracer = Tracer(clock=clock, keep_spans=0)
        traced = tracer.wrap(noop, callee_layer, "callee")
        tracer.enter("caller", "root")
        for _ in range(loops):
            traced(1, 2)
        tracer.exit()
        totals = tracer.layer_self()
        return totals["caller"], totals.get("callee", 0.0)

    caller_same, _ = measure("caller")
    caller_s, callee_s = measure("callee")
    callee = max(0.0, callee_s / loops - bare / loops)
    return {
        "call": max(0.0, (caller_same - bare) / loops),
        "callee": callee,
        "caller": max(0.0, (caller_s + callee_s - bare) / loops - callee),
    }


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-layer self time recomputed from a complete list of spans."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for _id, parent, _layer, _name, start, end in spans:
        if parent != NO_PARENT:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for span_id, _parent, layer, _name, start, end in spans:
        own = (end - start) - child_time.get(span_id, 0.0)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def root_time(spans: Iterable[Span]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for _i, parent, _l, _n, start, end in spans
               if parent == NO_PARENT)
