"""Machine-speed sampling, so wall-clock figures survive a shared machine.

A shared machine runs the same code tens of percent faster or slower
from one second to the next.  While a timed run goes on, a timer signal
interrupts it every ``PERIOD_S`` and times one slice of a fixed
reference workload: a small discrete-event loop over a heap, objects,
dictionaries and method calls, the kinds of work the simulator does.
The run's own time (wall time minus the slices) is then scaled to a
machine on which a slice takes ``NOMINAL_SLICE_S``.  The slices do not
touch the simulation, so its outputs are unchanged, and the reference
workload never changes with the simulator, so a faster simulator still
reads faster.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List

PERIOD_S = 0.05
SLICE_EVENTS = 2000
# One slice on the machine the baseline was recorded on (2 vCPUs at
# 2.1 GHz, Python 3.11), so scaled figures stay near measured ones.
NOMINAL_SLICE_S = 0.003
MIN_SLICES = 5


class _Node:
    __slots__ = ("name", "seen", "peers")

    def __init__(self, name: int) -> None:
        self.name = name
        self.seen: dict = {}
        self.peers: list = []

    def receive(self, loop: "_Loop", key: int) -> None:
        self.seen[key] = self.seen.get(key, 0) + 1
        if loop.scheduled < SLICE_EVENTS:
            peer = self.peers[key % len(self.peers)]
            loop.schedule(1.0 + (key % 7) * 0.25, peer.receive, key + self.name)


class _Loop:
    def __init__(self) -> None:
        self.queue: list = []
        self.scheduled = 0
        self.now = 0.0

    def schedule(self, delay: float, callback, *args) -> None:
        self.scheduled += 1
        heapq.heappush(self.queue, (self.now + delay, self.scheduled, callback, args))

    def run(self) -> int:
        fired = 0
        while self.queue:
            self.now, _seq, callback, args = heapq.heappop(self.queue)
            callback(self, *args)
            fired += 1
        return fired


def slice_seconds() -> float:
    """Wall seconds of one slice of the fixed reference workload."""
    started = time.perf_counter()
    loop = _Loop()
    nodes = [_Node(i) for i in range(16)]
    for node in nodes:
        node.peers = [peer for peer in nodes if peer is not node]
    for i, node in enumerate(nodes):
        loop.schedule(0.0, node.receive, i)
    fired = loop.run()
    elapsed = time.perf_counter() - started
    if fired != SLICE_EVENTS:
        raise RuntimeError(f"reference slice fired {fired} events")
    return elapsed


class SpeedSampler:
    """Times reference slices on a timer while the ``with`` body runs."""

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._slicing = False

    def _on_timer(self, _signum, _frame) -> None:
        if self._slicing:  # a tick during a slow slice: skip, do not nest
            return
        self._slicing = True
        try:
            self.slices.append(slice_seconds())
        finally:
            self._slicing = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def nominal(self, wall: float) -> float:
        """``wall`` without the slices, scaled to nominal machine speed."""
        busy = sum(self.slices)
        while len(self.slices) < MIN_SLICES:  # too short a body: sample after it
            self.slices.append(slice_seconds())
        ordered = sorted(self.slices)
        trim = len(ordered) // 10  # a slice hit by a hiccup must not skew the mean
        typical = statistics.fmean(ordered[trim:len(ordered) - trim])
        return (wall - busy) * NOMINAL_SLICE_S / typical
