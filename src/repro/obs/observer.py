"""The observer: one object bundling a span tracer and a metrics registry.

Instrumented layers below ``obs`` in the import DAG (``net``, ``db``)
never import this module — they hold an *optional, duck-typed* observer
and guard every hook with a ``None`` check, which keeps instrumentation
zero-cost when disabled and keeps the architecture acyclic (``obs`` may
depend on ``sim``/``net``; nothing below ``core`` depends on ``obs``).
The hooks below are therefore the whole contract between the
observability layer and the system it watches.

Causality model (one root per client request):

* ``on_request_submit`` opens the root span; the client pushes it while
  dispatching (``enter_request`` / ``exit_request``), so the outgoing
  ``client.request`` messages are children.
* ``on_message_send`` opens a flight span under the current context and
  stamps its id onto the envelope; ``on_message_deliver`` /
  ``on_message_drop`` close it.
* ``enter_handler`` / ``exit_handler`` bracket a receiving node's
  handler with a span parented under the flight span — re-entering the
  request's causal tree on the other side of the wire.
* ``on_phase`` turns the five-phase records into phase spans: each phase
  of a (source, request) pair ends when the next one starts.
* lock hooks wrap 2PL waits; the trace-log bridge converts group
  communication, failure-detector, 2PC and fault-injection records into
  instant events and counters.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .spans import Span, SpanTracer

__all__ = ["Observer", "abort_reason_label"]

# Trace-log categories bridged into instant group-communication events.
_GC_CATEGORIES = frozenset(
    {"abcast", "rbcast", "fifo", "causal", "optab", "consensus", "view"}
)

_ABORT_KEYWORDS = (
    ("deadlock", "deadlock"),
    ("timeout", "timeout"),
    ("crash", "crash"),
    ("certif", "certification"),
    ("conflict", "conflict"),
    ("vote", "vote-no"),
    ("client abort", "client"),
)


def abort_reason_label(reason: str) -> str:
    """Collapse free-form abort reasons to a bounded label set.

    Reasons often embed transaction ids (``"transaction r0:t3 aborted:
    lock wait timeout"``); counting them verbatim would explode metric
    cardinality without adding information.
    """
    lowered = reason.lower()
    for needle, label in _ABORT_KEYWORDS:
        if needle in lowered:
            return label
    return "other"


class Observer:
    """Span tracer + metrics registry + the hook surface layers call."""

    def __init__(self, clock: Any = None) -> None:
        self.tracer = SpanTracer(clock)
        self.metrics = MetricsRegistry()
        self._open_requests: Dict[str, Span] = {}
        self._open_phases: Dict[Tuple[str, object], Span] = {}
        self._completed_at: Dict[str, float] = {}
        self.lock_sequence: List[Tuple[str, str, str, str]] = []
        self.attr_writes: Dict[str, set] = {}
        self._trace_log: Any = None
        self._sampled_sim: Any = None
        self._finalized = False
        self._span_names = _SpanNames()

    # -- client request lifecycle (called from repro.core) -----------------

    def on_request_submit(self, request_id: str, client: str) -> Span:
        span = self.tracer.start(
            "request", "request", client,
            trace_id=str(request_id), parent_id=None, use_context=False,
            request=str(request_id), client=client,
        )
        self._open_requests[str(request_id)] = span
        self.metrics.inc("requests.submitted")
        return span

    def on_request_complete(
        self, request_id: str, committed: bool, reason: str = "", retries: int = 0
    ) -> None:
        span = self._open_requests.pop(str(request_id), None)
        if span is None:
            return
        status = "ok" if committed else "aborted"
        self.tracer.finish(span, status=status, committed=committed,
                           reason=reason, retries=retries)
        self._completed_at[str(request_id)] = span.end
        self.metrics.inc("requests.committed" if committed else "requests.aborted")
        if retries:
            self.metrics.inc("requests.retries", amount=retries)
        now = self.tracer.now
        if committed:
            self.metrics.observe("request.latency", span.duration)
            self.metrics.sample("ts.completions", now)
            self.metrics.sample("ts.response_time", now, span.duration)
        else:
            self.metrics.sample("ts.aborts", now)

    def enter_request(self, request_id: str) -> Optional[Span]:
        """Push a request's root span for client-side dispatch.

        Pair with :meth:`exit_request` (in a ``finally``) so an
        unknown-destination raise still unwinds the context stack.
        """
        span = self._open_requests.get(str(request_id))
        if span is not None:
            self.tracer.push(span)
        return span

    def exit_request(self, span: Optional[Span]) -> None:
        if span is not None:
            self.tracer.pop()

    # -- network (called from repro.net, duck-typed) -----------------------

    def on_message_send(self, message: Any) -> None:
        """Open a flight span for an envelope and stamp it on the message.

        The flight normally parents (and inherits its trace) from the
        context stack.  When the send happens outside any context — a
        timer callback, a process the tracer could not see — the trace
        id is recovered from request/transaction identifiers inside the
        payload, so phase attribution and the critical-path walk keep
        every flight of a request even across untracked boundaries.
        """
        payload = message.payload
        mtype = message.type
        src = message.src
        metrics = self.metrics
        tracer = self.tracer
        attrs = {"type": mtype, "src": src, "dst": message.dst,
                 "msg_id": message.msg_id}
        inner = None
        if isinstance(payload, dict):
            inner = payload.get("inner_type")
            attrs["bytes"] = size = _approx_size(payload)
            metrics.inc("messages.bytes", amount=size)
        if isinstance(inner, str):
            attrs["inner"] = inner
        span = tracer._open(self._span_names[mtype][0], "message", src,
                            None, None, True, attrs)
        if span.parent_id is None:
            # Sent outside any context: recover the trace from the payload.
            span.trace_id = _payload_trace_hint(payload) or ""
        message.span_id = span.span_id
        metrics.inc("messages.sent")
        metrics.inc("messages.sent.by_type", mtype)
        metrics.sample("ts.messages", span.start)
        if isinstance(inner, str):
            metrics.inc("messages.sent.by_inner_type", inner)

    def on_message_deliver(self, message: Any) -> None:
        span = self.tracer.get(message.span_id)
        if span is not None:
            self.tracer.finish(span, status="ok")
            self.metrics.observe("message.flight_time", span.end - span.start)
        self.metrics.inc("messages.delivered")

    def on_message_drop(self, message: Any, cause: str) -> None:
        span = self.tracer.get(message.span_id)
        if span is not None:
            self.tracer.finish(span, status=f"dropped:{cause}")
        self.metrics.inc("messages.dropped", label=cause)

    def enter_handler(self, node_name: str, message: Any) -> Optional[Span]:
        """Open and push a handler span under the message's flight span.

        Returns ``None`` (and pushes nothing) for an untraced envelope.
        The caller must hand the result to :meth:`exit_handler` whether
        or not the handler raised.
        """
        tracer = self.tracer
        flight = tracer.get(message.span_id)
        if flight is None:
            return None
        mtype = message.type
        span = tracer._open(
            self._span_names[mtype][1], "handle", node_name, flight.trace_id,
            flight.span_id, True, {"type": mtype, "src": message.src},
        )
        tracer.push(span)
        return span

    def exit_handler(
        self, span: Optional[Span], error: Optional[BaseException] = None
    ) -> None:
        """Pop and close a handler span from :meth:`enter_handler`.

        An exception escaping the handler (a node crash, an
        unknown-destination raise) still closes the span, tagged
        ``error:<ExceptionType>`` instead of ``ok`` — error paths must
        never leave a span open or mislabelled as clean.
        """
        if span is None:
            return
        self.tracer.pop()
        self.tracer.finish(
            span, None if error is None else f"error:{type(error).__name__}"
        )

    # -- phases (called from repro.core.phases) ------------------------------

    def on_phase(
        self, source: str, request_id: object, phase: str, mechanism: str = ""
    ) -> Span:
        """Open a phase span; the previous phase of (source, request) ends."""
        key = (source, request_id)
        metrics = self.metrics
        previous = self._open_phases.pop(key, None)
        if previous is not None:
            self.tracer.finish(previous)
            duration = previous.end - previous.start
            metrics.observe("phase.latency", duration, previous.name)
            metrics.sample("ts.phase_time", previous.end, duration,
                           previous.name)
        trace_id = str(request_id)
        span = self.tracer._open(
            phase, "phase", source, trace_id, None, True,
            {"request": trace_id, "mechanism": mechanism},
        )
        self._open_phases[key] = span
        metrics.inc("phases.entered", phase)
        if phase == "AC":
            completed = self._completed_at.get(trace_id)
            if completed is not None:
                # A replica applying after the client already got its
                # answer: lazy propagation.  The gap is the staleness
                # window this update was invisible for — replication
                # lag, as a series.
                metrics.sample(
                    "ts.replication_lag", span.start, span.start - completed
                )
        return span

    # -- locks (called from repro.db.locks, duck-typed) ----------------------

    def on_lock_acquire(self, site: str, txn: object, item: str, mode: str) -> None:
        """Every acquisition *request*, contended or not.

        The sequence is what the wait-graph tests replay against the
        static W5xx lock sites: each recorded (site, item, mode) must
        match a lock pattern the analysis extracted.
        """
        self.lock_sequence.append((site, str(txn), item, mode))
        self.metrics.inc("lock.requests", label=mode)

    def on_lock_wait(self, site: str, txn: object, item: str, mode: str) -> Span:
        return self.tracer.start(
            f"lock-wait:{item}", "lock", site, trace_id=_txn_trace(txn),
            txn=str(txn), item=item, mode=mode,
        )

    def on_lock_granted(self, span: Optional[Span], waited: float) -> None:
        if span is not None:
            self.tracer.finish(span, status="ok")
        self.metrics.observe("lock.wait_time", waited)

    def on_lock_failed(self, span: Optional[Span], cause: str) -> None:
        if span is not None:
            self.tracer.finish(span, status=f"aborted:{cause}")
        self.metrics.inc("lock.aborted_waits", label=cause)

    def on_lock_released(self, hold_time: float) -> None:
        self.metrics.observe("lock.hold_time", hold_time)

    def on_deadlock(self) -> None:
        self.metrics.inc("lock.deadlocks")

    # -- attribute writes (opt-in, via repro.obs.attrtrack) ------------------

    def on_attr_write(self, label: str, attr: str) -> None:
        """Record that a tracked instance wrote one of its attributes.

        Only fires for instances explicitly wrapped with
        :func:`~repro.obs.attrtrack.track_attr_writes` — nothing on the
        normal hot path calls this.  The accumulated per-class sets are
        what the interference tests compare against the static R6xx
        write sets (``docs/interference.json`` ``classes`` map): every
        observed write must be a subset of what the analysis predicted.
        """
        self.attr_writes.setdefault(label, set()).add(attr)

    # -- transactions (called from repro.db.transactions, duck-typed) --------

    def on_txn_commit(self, site: str) -> None:
        self.metrics.inc("txn.committed")

    def on_txn_abort(self, site: str, reason: str) -> None:
        self.metrics.inc("txn.aborted", label=abort_reason_label(reason))

    # -- trace-log bridge -----------------------------------------------------

    def attach(self, trace_log: Any) -> None:
        """Mirror structured trace events as instant spans and counters.

        The group-communication, failure-detection, 2PC and
        fault-injection layers already narrate themselves into the
        :class:`~repro.sim.TraceLog`; subscribing converts that
        narration into the span world without those layers knowing the
        observer exists.  Events fire inside handler contexts, so the
        instants land in the right causal subtree.
        """
        self._trace_log = trace_log
        trace_log.subscribe(self._on_trace_event)

    def attach_sampler(self, sim: Any, width: Optional[float] = None) -> None:
        """Sample gauges at every bucket boundary via the sim tick hook.

        Event-fed series carry their own timestamps; *state* (breaker
        positions, suspicion counts — anything held in a gauge) has to be
        polled.  The simulator's tick hook fires inline as the event loop
        crosses bucket boundaries — no timers are scheduled, so observing
        a run does not perturb it (the neutrality test's contract).
        """
        self._sampled_sim = sim
        sim.set_tick_hook(
            width if width is not None else self.metrics.series_width,
            self._on_tick,
        )

    def _on_tick(self, boundary: float) -> None:
        """Record every gauge's current value into its ``sample.*`` series."""
        for name, label, value in self.metrics.gauge_values():
            self.metrics.sample(
                f"sample.{name}", boundary, value, label=label or None
            )

    def _on_trace_event(self, event: Any) -> None:
        category = event.category
        if category == "phase":
            return  # natively instrumented as real spans
        if category in _GC_CATEGORIES:
            mtype = event.data.get("mtype", event.data.get("action", ""))
            self.tracer.instant(
                f"{category}:{mtype}" if mtype else category, "gc",
                event.source, **_primitive_attrs(event.data),
            )
            self.metrics.inc("broadcast.delivered", label=category)
        elif category == "fd":
            action = event.data.get("action", "")
            self.tracer.instant(
                f"fd:{action}", "fd", event.source,
                peer=event.data.get("peer", ""),
            )
            if action == "suspect":
                self.metrics.inc("fd.suspicions")
            elif action == "restore":
                self.metrics.inc("fd.wrong_suspicions")
        elif category == "2pc":
            decision = event.data.get("decision", "")
            self.tracer.instant(
                f"2pc:{decision}", "2pc", event.source,
                txn=str(event.data.get("txn", "")),
            )
            self.metrics.inc("2pc.decisions", label=decision)
        elif category == "fault":
            action = event.data.get("action", "")
            self.tracer.instant(
                f"fault:{action}", "fault", event.source,
                **_primitive_attrs(event.data),
            )
            self.metrics.inc("faults.injected", label=action)
            self.metrics.sample("ts.faults", self.tracer.now)

    # -- crashes (called from repro.core.system) ------------------------------

    def on_node_crash(self, node_name: str) -> None:
        """Close the crashed node's open phase spans as errors.

        The host loses its in-flight work (active transactions are
        aborted, the serving table cleared); the spans narrating that
        work must not linger as if it were still running — satellite
        audit: no leaked open spans on chaos paths.
        """
        keys = sorted(
            (k for k in self._open_phases if k[0] == node_name), key=repr
        )
        for key in keys:
            span = self._open_phases.pop(key)
            self.tracer.finish(span, status="error:crash")
        self.metrics.inc("nodes.crashed")

    # -- export preparation ----------------------------------------------------

    def finalize(self) -> None:
        """Bound every open span and derive end-of-run gauges (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        if self._sampled_sim is not None:
            # Final gauge sample at the horizon, then detach so a reused
            # simulator does not call into a finalized observer.
            self._on_tick(self.tracer.now)
            self._sampled_sim.clear_tick_hook()
            self._sampled_sim = None
        for key in sorted(self._open_phases, key=repr):
            span = self._open_phases[key]
            self.tracer.finish(span, status="open")
        self._open_phases.clear()
        for request_id in sorted(self._open_requests):
            self.tracer.finish(self._open_requests[request_id], status="unanswered")
        self._open_requests.clear()
        force_closed = len(self.tracer.open_spans())
        self.tracer.finalize()
        self.metrics.set("spans.recorded", float(len(self.tracer.spans)))
        self.metrics.set("spans.force_closed", float(force_closed))
        if self._trace_log is not None:
            # Ring-buffer overflow is silent at drop time by design (the
            # hot path cannot afford reporting); surface it here so a
            # truncated trace is visible in every metrics report.
            self.metrics.set(
                "trace.dropped_events", float(self._trace_log.dropped_events)
            )

    def __repr__(self) -> str:
        return f"<Observer {self.tracer!r} {self.metrics!r}>"


class _SpanNames(Dict[str, Tuple[str, str]]):
    """Message type -> (flight span name, handler span name), built once."""

    def __missing__(self, message_type: str) -> Tuple[str, str]:
        names = self[message_type] = (
            f"msg:{message_type}", f"handle:{message_type}"
        )
        return names


def _txn_trace(txn: object) -> str:
    """Transaction ids double as trace ids when protocols reuse request ids."""
    return str(txn)


def _approx_size(value: Any) -> int:
    """Deterministic wire-size estimate of a payload, in bytes.

    An accounting convention, not a codec: strings count their length,
    numbers a fixed word, containers recurse with small framing.  Unknown
    objects count a flat 16 — never ``str()`` them, the default repr
    embeds ``id()`` and would vary run to run.

    Runs once per observed send, so ``str``, ``int`` and ``float`` are
    matched by exact class first and a dict sizes its scalar entries
    inline; every other type — ``bool``, ``None``, ``bytes``, sequences,
    subclasses — takes the ``isinstance`` rules.
    """
    cls = type(value)
    if cls is str:
        return len(value)
    if cls is int or cls is float:
        return 8
    if isinstance(value, dict):
        size = 2
        for key, item in value.items():
            size += (len(key) if type(key) is str else _approx_size(key)) + 2
            cls = type(item)
            if cls is str:
                size += len(item)
            elif cls is int or cls is float:
                size += 8
            else:
                size += _approx_size(item)
        return size
    if isinstance(value, bool) or value is None:
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        size = 2
        for item in value:
            size += _approx_size(item)
        return size
    return 16


def _payload_trace_hint(payload: Any, depth: int = 5) -> Optional[str]:
    """Recover a trace id from request identifiers inside a payload.

    Used only for sends with an empty causal context — timer callbacks
    (lazy propagation, retransmissions) and the group-communication
    stack's ``call_soon`` local-delivery hops, where the synchronous
    context chain is cut.  Wire payloads nest the request under framing
    layers (a reliable-transport frame wraps an ordered-broadcast body
    wraps the request), so the probe descends a few known envelope keys.
    A ``None`` merely leaves the flight as background traffic, so it is
    deliberately conservative: exact keys, bounded depth, first match in
    a fixed order.
    """
    if not isinstance(payload, dict) or depth <= 0:
        return None
    request_id = payload.get("request_id")
    if isinstance(request_id, str) and request_id:
        return request_id
    for key in ("txn", "txn_id"):
        txn = payload.get(key)
        if isinstance(txn, str) and txn:
            return txn.split("@", 1)[0]
    for key in ("request", "body", "updates"):
        inner = payload.get(key)
        if isinstance(inner, dict):
            hint = _payload_trace_hint(inner, depth - 1)
            if hint is not None:
                return hint
    entries = payload.get("entries")
    if isinstance(entries, list) and entries:
        # A propagation batch: attribute the flight to the first shipped
        # transaction's request (a convention — the batch serves them
        # all, but one trace must own the flight span).
        return _payload_trace_hint(entries[0], depth - 1)
    return None


def _primitive_attrs(data: Dict[str, Any]) -> Dict[str, Any]:
    """Keep only primitive payload values (span attrs must stay JSON-able)."""
    return {
        key: value
        for key, value in data.items()
        if isinstance(value, (str, int, float, bool)) or value is None
    }
