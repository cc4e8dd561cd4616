"""Atomic broadcast (ABCAST): totally ordered, reliable delivery.

The paper's Section 3.1 definition: if one member of the group delivers
*m*, all non-crashed members eventually deliver *m* (atomicity), and any
two members delivering *m* and *m'* deliver them in the same order (total
order).

Two classic implementations are provided:

* :class:`SequencerAtomicBroadcast` — a fixed member assigns a global
  sequence number to every message; everyone delivers in sequence order.
  Two message hops, minimal cost, but the total order is only maintained
  while the sequencer stays up.  Used for failure-free experiments.
* :class:`ConsensusAtomicBroadcast` — the Chandra–Toueg reduction of
  atomic broadcast to a series of consensus instances on message batches.
  Tolerates a minority of crashes and unreliable failure detection; this is
  the primitive behind active replication's failure transparency.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..failures import FailureDetector
from ..net import Node
from ..sim import TraceLog
from .channels import ReliableTransport
from .consensus import Consensus
from .rbcast import ReliableBroadcast

__all__ = [
    "ABCAST_FLAVOURS",
    "SequencerAtomicBroadcast",
    "ConsensusAtomicBroadcast",
    "check_abcast_flavour",
]

# The ordering protocols a replica's ``config["abcast"]`` may select.
ABCAST_FLAVOURS = ("consensus", "sequencer")


def check_abcast_flavour(flavour: str) -> str:
    """Return ``flavour`` if it names an ABCAST protocol; raise otherwise."""
    if flavour not in ABCAST_FLAVOURS:
        raise ValueError(
            f"unknown abcast flavour {flavour!r}; "
            f"expected one of {', '.join(ABCAST_FLAVOURS)}"
        )
    return flavour


class SequencerAtomicBroadcast:
    """Fixed-sequencer ABCAST endpoint.

    ``abcast`` forwards the message to the sequencer (the first group
    member); the sequencer stamps it with the next global sequence number
    and reliably broadcasts the stamped message; members deliver stamped
    messages in sequence order via a hold-back queue.

    The sequencer is a single point of order: this implementation is the
    lightweight option for experiments without sequencer crashes (the
    paper's failure-free comparisons).  Use
    :class:`ConsensusAtomicBroadcast` when crashes must be masked.
    """

    def __init__(
        self,
        node: Node,
        transport: ReliableTransport,
        group: List[str],
        deliver: Callable[[str, str, dict], None],
        trace: Optional[TraceLog] = None,
        channel_prefix: str = "seqab",
    ) -> None:
        self.node = node
        self.transport = transport
        self.group = list(group)
        self.deliver = deliver
        self.trace = trace
        self.sequencer = self.group[0]
        self._req_type = f"{channel_prefix}.req"
        self._next_seq = 0        # sequencer-side counter
        self._next_deliver = 0    # member-side hold-back cursor
        self._held: Dict[int, Tuple[str, str, dict]] = {}
        transport.on(self._req_type, self._on_request)
        self._order_rb = ReliableBroadcast(
            node, transport, group, self._on_order, channel=f"{channel_prefix}.order"
        )

    def abcast(self, mtype: str, **body: Any) -> str:
        """Atomically broadcast ``body`` to the group; returns the uid."""
        uid = f"{self.node.name}#{self.node.fresh_uid()}"
        self.transport.send(
            self.sequencer, self._req_type,
            uid=uid, origin=self.node.name, m=mtype, body=body,
        )
        return uid

    def _on_request(self, src: str, payload: dict) -> None:
        if self.node.name != self.sequencer:
            return  # stale request to a non-sequencer; ignore
        seq = self._next_seq
        self._next_seq += 1
        self._order_rb.broadcast(
            "order", seq=seq,
            uid=payload["uid"], origin=payload["origin"],
            m=payload["m"], body=payload["body"],
        )

    def _on_order(self, _origin: str, _mtype: str, body: dict) -> None:
        self._held[body["seq"]] = (body["origin"], body["m"], body["body"])
        while self._next_deliver in self._held:
            origin, mtype, inner = self._held.pop(self._next_deliver)
            if self.trace is not None:
                self.trace.record(
                    "abcast", self.node.name,
                    seq=self._next_deliver, origin=origin, mtype=mtype,
                )
            self._next_deliver += 1
            self.deliver(origin, mtype, inner)

    def __repr__(self) -> str:
        return f"<SequencerAtomicBroadcast@{self.node.name} seq={self.sequencer}>"


class ConsensusAtomicBroadcast:
    """Fault-tolerant ABCAST via reduction to consensus.

    Messages are first disseminated with reliable broadcast; members then
    agree, one consensus instance per batch, on the set of messages forming
    the next slice of the total order.  Within a decided batch, messages
    are delivered in deterministic uid order.  Decisions are applied in
    instance order, so the delivery sequence is identical everywhere.

    Tolerates crashes of any minority of the group, including mid-broadcast
    sender crashes, and works with the unreliable failure detector (wrong
    suspicions cost extra rounds, never safety).
    """

    def __init__(
        self,
        node: Node,
        transport: ReliableTransport,
        group: List[str],
        detector: FailureDetector,
        deliver: Callable[[str, str, dict], None],
        trace: Optional[TraceLog] = None,
        channel_prefix: str = "ctab",
    ) -> None:
        self.node = node
        self.transport = transport
        self.group = list(group)
        self.deliver = deliver
        self.trace = trace
        self._unordered: Dict[str, Tuple[str, str, dict]] = {}
        self._delivered: Set[str] = set()
        self._next_instance = 0       # next instance this node may propose
        self._apply_cursor = 0        # next decision to apply
        self._decisions: Dict[int, list] = {}
        self._rb = ReliableBroadcast(
            node, transport, group, self._on_disseminate, channel=f"{channel_prefix}.msg"
        )
        self._consensus = Consensus(
            node, transport, group, detector, self._on_decide,
            trace=trace, channel_prefix=f"{channel_prefix}.ct",
        )

    def abcast(self, mtype: str, **body: Any) -> str:
        """Atomically broadcast ``body`` to the group; returns the uid."""
        uid = f"{self.node.name}#{self.node.fresh_uid()}"
        self._rb.broadcast("msg", uid=uid, origin=self.node.name, m=mtype, body=body)
        return uid

    # -- stage 1: dissemination ------------------------------------------------

    def _on_disseminate(self, _origin: str, _mtype: str, body: dict) -> None:
        uid = body["uid"]
        if uid in self._delivered or uid in self._unordered:
            return
        self._unordered[uid] = (body["origin"], body["m"], body["body"])
        self._maybe_propose()

    # -- stage 2: ordering -------------------------------------------------------

    def _maybe_propose(self) -> None:
        if not self._unordered:
            return
        if self._next_instance in self._decisions:
            return  # decision already known; will advance in _apply
        batch = [
            [uid, origin, mtype, body]
            for uid, (origin, mtype, body) in sorted(self._unordered.items())
        ]
        self._consensus.propose(self._next_instance, batch)

    def _on_decide(self, instance: int, batch: list) -> None:
        if instance in self._decisions or instance < self._apply_cursor:
            return
        self._decisions[instance] = batch
        self._apply_ready()

    def _apply_ready(self) -> None:
        while self._apply_cursor in self._decisions:
            batch = self._decisions.pop(self._apply_cursor)
            self._apply_cursor += 1
            self._next_instance = max(self._next_instance, self._apply_cursor)
            for uid, origin, mtype, body in batch:
                self._unordered.pop(uid, None)
                if uid in self._delivered:
                    continue
                self._delivered.add(uid)
                if self.trace is not None:
                    self.trace.record(
                        "abcast", self.node.name,
                        instance=self._apply_cursor - 1, uid=uid, mtype=mtype,
                    )
                self.deliver(origin, mtype, body)
        self._maybe_propose()

    def __repr__(self) -> str:
        return (
            f"<ConsensusAtomicBroadcast@{self.node.name} "
            f"delivered={len(self._delivered)} unordered={len(self._unordered)}>"
        )
