"""Optimistic atomic broadcast (OPT-ABCAST).

The paper's introduction cites the authors' own DRAGON-project result
[KPAS99a]: "we have also shown how some of the overheads associated with
group communication can be hidden behind the cost of executing
transactions".  The mechanism is *optimistic delivery*: a message is
handed to the application twice —

* **tentatively**, as soon as it arrives (one network hop): the
  application may start processing speculatively;
* **finally**, when the total order is established: the application
  confirms the speculation if the tentative order agreed with the final
  order, or redoes the work if it did not.

On a LAN, messages usually arrive everywhere in the order they will be
sequenced ("spontaneous total order"), so speculation almost always pays
and the ordering latency is overlapped with processing.

:class:`OptimisticAtomicBroadcast` layers tentative dissemination
(reliable broadcast) next to a conventional ABCAST and reports, per final
delivery, whether the site's tentative order matched — the signal a
speculative consumer needs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from ..failures import FailureDetector
from ..net import Node
from ..sim import TraceLog
from .abcast import (
    ConsensusAtomicBroadcast,
    SequencerAtomicBroadcast,
    check_abcast_flavour,
)
from .channels import ReliableTransport
from .rbcast import ReliableBroadcast

__all__ = ["OptimisticAtomicBroadcast"]

class OptimisticAtomicBroadcast:
    """ABCAST with early tentative deliveries.

    Parameters
    ----------
    node, transport, group, detector:
        The usual stack handles (``detector`` is only needed for the
        consensus flavour).
    opt_deliver:
        Upcall ``opt_deliver(origin, mtype, body)`` at tentative delivery
        (receive order — may differ between sites and from the final
        order).
    final_deliver:
        Upcall ``final_deliver(origin, mtype, body, matched)`` in the
        definitive total order.  ``matched`` is True iff this message
        arrived tentatively exactly at its final position, i.e. the
        speculation performed at tentative time is valid.
    flavour:
        Underlying ordering protocol: ``"sequencer"`` or ``"consensus"``.
    """

    def __init__(
        self,
        node: Node,
        transport: ReliableTransport,
        group: List[str],
        detector: Optional[FailureDetector],
        opt_deliver: Callable[[str, str, dict], None],
        final_deliver: Callable[[str, str, dict, bool], None],
        flavour: str = "sequencer",
        trace: Optional[TraceLog] = None,
        channel_prefix: str = "optab",
    ) -> None:
        self.node = node
        self.opt_deliver = opt_deliver
        self.final_deliver = final_deliver
        self.trace = trace
        self._tentative_order: List[str] = []
        self._tentative_set: Set[str] = set()
        self._final_count = 0
        self.matches = 0
        self.mismatches = 0
        self._tentative_rb = ReliableBroadcast(
            node, transport, group, self._on_tentative,
            channel=f"{channel_prefix}.tent",
        )
        if check_abcast_flavour(flavour) == "sequencer":
            self._ordered = SequencerAtomicBroadcast(
                node, transport, group, self._on_final,
                channel_prefix=f"{channel_prefix}.ord",
            )
        else:
            if detector is None:
                raise ValueError("consensus flavour needs a failure detector")
            self._ordered = ConsensusAtomicBroadcast(
                node, transport, group, detector, self._on_final,
                channel_prefix=f"{channel_prefix}.ord",
            )

    # -- sending ------------------------------------------------------------

    def abcast(self, mtype: str, **body: Any) -> str:
        """Broadcast: tentative copies race ahead of the ordering protocol."""
        uid = f"{self.node.name}~{self.node.fresh_uid()}"
        self._tentative_rb.broadcast(
            "tent", uid=uid, origin=self.node.name, m=mtype, body=dict(body)
        )
        self._ordered.abcast(
            "wrap", uid=uid, origin=self.node.name, m=mtype, body=dict(body)
        )
        return uid

    # -- deliveries -----------------------------------------------------------

    def _on_tentative(self, _origin: str, _mtype: str, payload: dict) -> None:
        uid = payload["uid"]
        if uid in self._tentative_set:
            return
        self._tentative_set.add(uid)
        self._tentative_order.append(uid)
        if self.trace is not None:
            self.trace.record("optab", self.node.name, uid=uid, kind="tentative")
        self.opt_deliver(payload["origin"], payload["m"], payload["body"])

    def _on_final(self, _origin: str, _mtype: str, payload: dict) -> None:
        uid = payload["uid"]
        position = self._final_count
        self._final_count += 1
        matched = (
            len(self._tentative_order) > position
            and self._tentative_order[position] == uid
        )
        if matched:
            self.matches += 1
        else:
            self.mismatches += 1
            # Re-anchor the speculation stream: future comparisons are
            # against the final history, which from here on is authoritative.
            if uid in self._tentative_set:
                self._tentative_order.remove(uid)
            self._tentative_order.insert(position, uid)
            self._tentative_set.add(uid)
        if self.trace is not None:
            self.trace.record(
                "optab", self.node.name, uid=uid, kind="final", matched=matched
            )
        self.final_deliver(payload["origin"], payload["m"], payload["body"], matched)

    @property
    def match_rate(self) -> float:
        """Fraction of final deliveries whose speculation was valid."""
        total = self.matches + self.mismatches
        return self.matches / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"<OptimisticAtomicBroadcast@{self.node.name} "
            f"matches={self.matches} mismatches={self.mismatches}>"
        )
