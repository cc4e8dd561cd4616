"""Admission control at the replicated-system edge.

An open-loop arrival process keeps offering work whether or not the
system can absorb it, so the edge needs a policy for the overflow.  The
:class:`AdmissionController` implements the standard trio:

* **token-bucket throttling** — arrivals are admitted at a sustained
  ``rate`` with bursts up to ``burst`` tokens, smoothing spikes into the
  replicas instead of forwarding them raw;
* **queue-based load leveling** — arrivals that find the bucket empty
  wait in a bounded FIFO queue and are drained as tokens refill;
* **shedding** — arrivals that find the queue full, or whose deadline
  (the PR 6 envelope budget) has already expired, are refused with an
  aborted :class:`~repro.core.operations.Result` instead of being left
  to time out deep inside the protocol.

The controller maintains the conservation invariant

    ``offered == admitted + shed + queued``

at every instant, which the admission tests pin.  It is entirely
event-driven off the simulation clock (lazy token refill, one drain
timer at the next-token time), so an admission-controlled run stays
deterministic per seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .system import ClientNode, ReplicatedSystem, _Pending

__all__ = ["AdmissionConfig", "AdmissionController", "SHED_QUEUE_FULL",
           "SHED_DEADLINE", "SHED_DEADLINE_QUEUED"]

SHED_QUEUE_FULL = "shed: admission queue full"

# Refill accumulates ``elapsed * rate`` increments, so a bucket that
# should hold exactly one token can sit at 0.999... and the next-token
# delay rounds below the float resolution of the clock — a zero-advance
# timer livelock.  Treat anything within this tolerance as a whole token
# and never schedule a drain closer than the matching time floor.
_TOKEN_EPS = 1e-9
_MIN_DRAIN_DELAY = 1e-6
SHED_DEADLINE = "shed: deadline exceeded at admission"
SHED_DEADLINE_QUEUED = "shed: deadline exceeded in admission queue"


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for the system-edge admission policy.

    ``rate`` (required, > 0) is the sustained admission rate in requests
    per simulated time unit.  ``burst`` is the token-bucket capacity —
    how many arrivals may pass back-to-back after an idle period.
    ``queue_capacity`` bounds the leveling queue; arrivals beyond it are
    shed.  Arrivals whose deadline already passed are always refused,
    and queued entries whose deadline expires while they wait are shed
    at drain time.  To leave submits ungated, build the system without
    an admission config.
    """

    rate: float
    burst: float = 8.0
    queue_capacity: int = 1024

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("rate must be > 0")
        if self.burst < 1:
            raise ValueError("burst must be >= 1 token")
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")


class AdmissionController:
    """Gates every :meth:`ClientNode.submit` of one system.

    Counters are authoritative for the offered/goodput/shed accounting:
    the open-loop engine reads them into :class:`WorkloadSummary` and the
    observer (when present) mirrors them into ``ts.offered`` /
    ``ts.admitted`` / ``ts.shed`` time series.
    """

    def __init__(self, system: "ReplicatedSystem", config: AdmissionConfig) -> None:
        self.system = system
        self.config = config
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.shed_by_reason: Dict[str, int] = {}
        self._queue: Deque[Tuple["ClientNode", "_Pending"]] = deque()
        self._tokens = float(config.burst)
        self._refilled_at = system.sim.now
        self._drain_timer = None

    # -- public API -----------------------------------------------------------

    @property
    def queued(self) -> int:
        """Arrivals currently waiting in the leveling queue."""
        return len(self._queue)

    def submit(self, client: "ClientNode", record: "_Pending") -> None:
        """Offer one arrival; admit, enqueue or shed it."""
        self.offered += 1
        self._observe("ts.offered")
        if self._expired(record):
            self._shed(client, record, SHED_DEADLINE)
            return
        self._refill()
        if not self._queue and self._tokens >= 1.0 - _TOKEN_EPS:
            self._admit(client, record)
            return
        if len(self._queue) >= self.config.queue_capacity:
            self._shed(client, record, SHED_QUEUE_FULL)
            return
        self._queue.append((client, record))
        self._schedule_drain()

    def snapshot(self) -> Dict[str, int]:
        """Edge accounting; satisfies offered == admitted + shed + queued."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "queued": self.queued,
        }

    # -- mechanics ------------------------------------------------------------

    def _refill(self) -> None:
        now = self.system.sim.now
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(
                float(self.config.burst), self._tokens + elapsed * self.config.rate
            )
        self._refilled_at = now

    def _expired(self, record: "_Pending") -> bool:
        return record.deadline is not None and self.system.sim.now > record.deadline

    def _admit(self, client: "ClientNode", record: "_Pending") -> None:
        self._tokens = max(0.0, self._tokens - 1.0)
        self.admitted += 1
        self._observe("ts.admitted")
        client._start(record)

    def _shed(self, client: "ClientNode", record: "_Pending", reason: str) -> None:
        self.shed += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        self._observe("ts.shed")
        client._finish(record, reason)

    def _schedule_drain(self) -> None:
        if self._drain_timer is not None or not self._queue:
            return
        self._refill()
        # Time until the bucket next holds a whole token.
        deficit = max(0.0, 1.0 - self._tokens)
        delay = max(deficit / self.config.rate, _MIN_DRAIN_DELAY)
        self._drain_timer = self.system.sim.schedule(delay, self._drain)

    def _drain(self) -> None:
        self._drain_timer = None
        self._refill()
        while self._queue and self._tokens >= 1.0 - _TOKEN_EPS:
            client, record = self._queue.popleft()
            if self._expired(record):
                # Expired while waiting; sheds don't consume a token.
                self._shed(client, record, SHED_DEADLINE_QUEUED)
                continue
            self._admit(client, record)
        self._schedule_drain()

    def _observe(self, series: str) -> None:
        observer = self.system.observer
        if observer is not None:
            observer.metrics.sample(series, self.system.sim.now)

    def __repr__(self) -> str:
        return (
            f"<AdmissionController offered={self.offered} admitted={self.admitted} "
            f"shed={self.shed} queued={self.queued}>"
        )
