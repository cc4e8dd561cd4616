"""Node: an addressable process attached to the network.

A node owns message handlers, timers, and simulated processes.  Crashing a
node atomically silences it: in-flight handlers are interrupted, timers
cancelled, pending RPCs failed, and the network stops delivering to it.
This implements the crash-stop model used throughout the paper; database
nodes additionally keep *durable* state (storage, logs) that survives
:meth:`Node.recover`.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from ..errors import NodeCrashed, SimulationError
from ..sim import Future, Process, Simulator, Timer
from .message import Message
from .network import Network

__all__ = ["Node"]

REPLY_TYPE = "$reply"


class Node:
    """A named participant in the simulation.

    Subclasses register message handlers with :meth:`on` (usually in their
    constructor) and use :meth:`send`, :meth:`call` and :meth:`reply` to
    communicate.  All activity started through :meth:`spawn`, :meth:`after`
    and :meth:`every` is tracked and torn down on :meth:`crash`.
    """

    def __init__(self, sim: Simulator, network: Network, name: str) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.crashed = False
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._default_handler: Optional[Callable[[Message], None]] = None
        self._pending_calls: Dict[int, Future] = {}
        self._processes: List[Process] = []
        self._timers: List[Timer] = []
        # Dead-entry sweeps are amortized: each list is filtered only once
        # it reaches its watermark, and the watermark is then set to twice
        # the surviving length — O(1) amortized per spawn/after instead of
        # the old O(n) filter on every append past a fixed threshold.
        self._processes_watermark = 64
        self._timers_watermark = 64
        self._recover_hooks: List[Callable[[], None]] = []
        self._uids = itertools.count(1)
        network.register(self)

    # -- handler registration ---------------------------------------------

    def on(self, msg_type: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages of ``msg_type``."""
        if msg_type in self._handlers:
            raise SimulationError(f"{self.name}: duplicate handler for {msg_type!r}")
        self._handlers[msg_type] = handler

    def on_default(self, handler: Callable[[Message], None]) -> None:
        """Register a fallback handler for unmatched message types."""
        self._default_handler = handler

    def fresh_uid(self) -> int:
        """Node-local monotonically increasing id.

        Shared by every protocol endpoint hosted on this node, so ids of
        the form ``f"{node.name}#{node.fresh_uid()}"`` are globally unique
        while staying deterministic across same-seed runs (unlike a
        module-level counter, whose value depends on interpreter history).
        """
        return next(self._uids)

    # -- communication -------------------------------------------------------

    def send(self, dst: str, msg_type: str, **payload: Any) -> None:
        """Fire-and-forget message."""
        if self.crashed:
            return
        self.network.send(self.name, dst, msg_type, payload=payload)

    def send_many(self, dsts: List[str], msg_type: str, **payload: Any) -> None:
        """Point-to-point send of the same payload to several nodes."""
        for dst in dsts:
            self.send(dst, msg_type, **payload)

    def call(
        self,
        dst: str,
        msg_type: str,
        timeout: Optional[float] = None,
        **payload: Any,
    ) -> Future:
        """Request/reply exchange.

        Returns a future that resolves with the reply message.  If
        ``timeout`` is given and no reply arrives in time, the future fails
        with :class:`TimeoutError`.  If this node crashes first, the future
        fails with :class:`NodeCrashed`.
        """
        future = self.sim.future(label=f"{self.name}->{dst}:{msg_type}")
        if self.crashed:
            future.set_exception(NodeCrashed(f"{self.name} is crashed"))
            return future
        message = self.network.send(self.name, dst, msg_type, payload=payload)
        self._pending_calls[message.msg_id] = future
        if timeout is not None:
            def expire() -> None:
                if not future.done:
                    future.set_exception(
                        TimeoutError(f"{msg_type} to {dst} timed out after {timeout}")
                    )
            timer: Optional[Timer] = self.after(timeout, expire)
        else:
            timer = None

        def cleanup(_f: Future) -> None:
            self._pending_calls.pop(message.msg_id, None)
            # Cancel the timeout guard as soon as the call resolves —
            # RPC-heavy runs would otherwise queue one dead timer per
            # reply until its distant fire time.
            if timer is not None:
                timer.cancel()

        future.add_callback(cleanup)
        return future

    def reply(self, request: Message, **payload: Any) -> None:
        """Answer a message previously sent with :meth:`call`."""
        if self.crashed:
            return
        self.network.send(
            self.name, request.src, REPLY_TYPE, payload=payload, reply_to=request.msg_id
        )

    # -- dispatch (called by the network) -----------------------------------

    def _dispatch(self, message: Message) -> None:
        if self.crashed:
            return
        obs = self.network.obs
        if obs is not None and message.span_id is not None:
            # Bracket the handler in a span parented under the message's
            # flight span, so work it performs — phase records, further
            # sends — lands in the request's causal tree.
            span = obs.enter_handler(self.name, message)
            try:
                self._dispatch_inner(message)
            except BaseException as exc:
                obs.exit_handler(span, exc)
                raise
            obs.exit_handler(span)
        else:
            self._dispatch_inner(message)

    def _dispatch_inner(self, message: Message) -> None:
        if message.type == REPLY_TYPE and message.reply_to is not None:
            future = self._pending_calls.pop(message.reply_to, None)
            if future is not None and not future.done:
                future.set_result(message)
            return
        handler = self._handlers.get(message.type, self._default_handler)
        if handler is None:
            raise SimulationError(
                f"{self.name}: no handler for message type {message.type!r}"
            )
        handler(message)

    # -- tracked activity -------------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a process owned by this node (interrupted on crash).

        Under observation, the spawning span (typically the handler that
        called us) is re-pushed around every resumption of the process,
        so spans the process starts later — message flights of a 2PC
        coordinator, retry rounds — stay in the request's causal tree
        instead of becoming parentless background work.  The wrapper is
        pure bookkeeping on the tracer's context stack: no events are
        scheduled and no yields are added, so observed and unobserved
        runs interleave identically.
        """
        obs = self.network.obs
        if obs is not None and isinstance(generator, Generator):
            span = obs.tracer.current
            if span is not None:
                generator = _with_span_context(obs.tracer, span, generator)
        process = self.sim.spawn(generator, name=name or f"{self.name}-proc")
        processes = self._processes
        processes.append(process)
        if len(processes) >= self._processes_watermark:
            self._processes = [p for p in processes if p.alive]
            self._processes_watermark = max(64, 2 * len(self._processes))
        return process

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule a callback owned by this node (cancelled on crash)."""
        timer = self.sim.schedule(delay, self._guarded, callback, args)
        timers = self._timers
        timers.append(timer)
        if len(timers) >= self._timers_watermark:
            self._timers = [t for t in timers if not t.cancelled]
            self._timers_watermark = max(64, 2 * len(self._timers))
        return timer

    def every(self, interval: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` periodically until the node crashes."""
        def tick() -> None:
            callback()
            if not self.crashed:
                self.after(interval, tick)
        self.after(interval, tick)

    def _guarded(self, callback: Callable[..., None], args: tuple) -> None:
        if not self.crashed:
            callback(*args)

    # -- failure model -----------------------------------------------------------

    def crash(self) -> None:
        """Crash-stop this node.

        All owned processes are interrupted with :class:`NodeCrashed`, all
        timers cancelled, and all pending RPCs failed.  The network drops
        messages to and from crashed nodes.
        """
        if self.crashed:
            return
        self.crashed = True
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self._timers_watermark = 64
        for process in self._processes:
            process.interrupt(NodeCrashed(f"{self.name} crashed"))
        self._processes.clear()
        self._processes_watermark = 64
        pending, self._pending_calls = self._pending_calls, {}
        for future in pending.values():
            if not future.done:
                future.set_exception(NodeCrashed(f"{self.name} crashed"))
        self.on_crash()

    def recover(self) -> None:
        """Restart a crashed node.

        Volatile state is gone; durable state is whatever the subclass
        preserved.  Subclasses hook :meth:`on_recover` to rebuild volatile
        structures (e.g. re-acquire no locks, restart heartbeats).
        """
        if not self.crashed:
            return
        self.crashed = False
        for hook in self._recover_hooks:
            hook()
        self.on_recover()

    def add_recover_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback run on every :meth:`recover`.

        Components that arm periodic timers (failure detectors, batchers)
        use this to restart them — crash cancels all timers permanently.
        """
        self._recover_hooks.append(hook)

    def on_crash(self) -> None:
        """Subclass hook invoked after the node crashes."""

    def on_recover(self) -> None:
        """Subclass hook invoked after the node recovers."""

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.name} {state}>"


def _with_span_context(
    tracer: Any, span: Any, generator: Generator
) -> Generator:
    """Drive ``generator`` with ``span`` pushed during each resumption.

    The simulator resumes processes with an empty tracer context (they
    run from the event loop, not from the dispatch that spawned them);
    this wrapper restores the spawning span for exactly the synchronous
    stretch between two yields.  ``StopIteration`` from the inner
    generator must be converted to a plain ``return`` (PEP 479 would
    otherwise turn it into a ``RuntimeError``).
    """
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        tracer.push(span)
        try:
            if error is not None:
                exc, error = error, None
                item = generator.throw(exc)
            else:
                item = generator.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.pop()
        try:
            value = yield item
        except BaseException as exc:
            error, value = exc, None
