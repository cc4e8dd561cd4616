"""Active replication — the state-machine approach (Section 3.2, Figure 2).

"All replicas receive and process the same sequence of client requests.
Consistency is guaranteed by assuming that, when provided with the same
input in the same order, replicas will produce the same output."

Mechanics reproduced here:

* The client addresses the *group* (policy ``"all"``): its request reaches
  every replica, merging the RE and SC phases into the atomic broadcast.
* Replicas order requests with ABCAST.  To avoid every replica injecting
  every request into the broadcast, the lowest live replica injects and
  the others arm a fallback timer — if the injector crashes, they inject
  themselves, preserving failure transparency.
* Execution is deterministic state-machine application in delivery order;
  there is **no Agreement Coordination phase** (Figure 2: "phase AC is not
  used"), since identical inputs in identical order yield identical state.
* Every replica responds; "the client typically only waits for the first
  answer (the others are ignored)".

The determinism requirement is real, not stylised: submit an operation
using the ``random_token`` update function and the replicas genuinely
diverge (each draws from its own RNG) — the failure mode that motivates
passive replication.

``config`` options:

* ``abcast`` — ``"consensus"`` (default; crash-tolerant Chandra–Toueg
  reduction) or ``"sequencer"`` (cheap fixed sequencer for failure-free
  experiments).
"""

from __future__ import annotations

from typing import Dict, Set

from ...groupcomm import ConsensusAtomicBroadcast, SequencerAtomicBroadcast
from ..operations import Request
from ..phases import AC, END, EX, RE, SC, PhaseDescriptor, PhaseStep
from .base import ProtocolInfo, ReplicaProtocol, apply_request_to_store

__all__ = ["ActiveReplication", "INJECT_FALLBACK"]

# How long a non-injector waits before injecting a client request itself
# (shared with semi-active replication, which orders requests the same way).
INJECT_FALLBACK = 30.0


class ActiveReplication(ReplicaProtocol):
    """Per-replica endpoint of the active replication technique."""

    info = ProtocolInfo(
        name="active",
        title="Active replication",
        figure="Figure 2",
        community="ds",
        descriptor=PhaseDescriptor(
            technique="active",
            steps=(
                PhaseStep(RE, "abcast"),
                PhaseStep(SC, "abcast", merged_with=RE),
                PhaseStep(EX),
                PhaseStep(END),
            ),
        ),
        consistency="strong",
        client_policy="all",
        failure_transparent=True,
        requires_determinism=True,
        supports_multi_op=True,
    )

    def __init__(self, replica, group, config) -> None:
        super().__init__(replica, group, config)
        flavour = config.get("abcast", "consensus")
        if flavour == "sequencer":
            self.abcast = SequencerAtomicBroadcast(
                replica.node, replica.transport, group, self._on_deliver,
                trace=replica.system.trace,
            )
        else:
            self.abcast = ConsensusAtomicBroadcast(
                replica.node, replica.transport, group, replica.detector,
                self._on_deliver, trace=replica.system.trace,
            )
        self._executed: Set[str] = set()
        self._awaiting_order: Dict[str, tuple] = {}
        # If the replica responsible for injecting requests is suspected,
        # take over its pending work at detection time instead of waiting
        # for the fallback timer — keeps the crash fully masked.
        replica.detector.on_suspect(lambda _peer: self._inject_all_pending())

    # -- request path -----------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        rid = request.request_id
        if rid in self._executed or rid in self._awaiting_order:
            return
        self._awaiting_order[rid] = (request, client)
        if self._am_injector():
            self._inject(rid)
        else:
            self.replica.node.after(INJECT_FALLBACK, self._inject_if_pending, rid)

    def _am_injector(self) -> bool:
        for name in self.group:
            if name == self.replica.name:
                return True
            if not self.replica.detector.is_suspected(name):
                return False
        return False

    def _inject_if_pending(self, rid: str) -> None:
        if rid in self._awaiting_order and rid not in self._executed:
            self._inject(rid)

    def _inject_all_pending(self) -> None:
        if not self._am_injector():
            return
        for rid in list(self._awaiting_order):
            self._inject_if_pending(rid)

    def _inject(self, rid: str) -> None:
        request, client = self._awaiting_order[rid]
        self.abcast.abcast("request", request=request.as_wire(), client=client)

    # -- ordered delivery ----------------------------------------------------

    def _on_deliver(self, origin: str, mtype: str, body: dict) -> None:
        request = Request.from_wire(body["request"])
        rid = request.request_id
        if rid in self._executed:
            return  # a second replica also injected it; ignore duplicates
        self._executed.add(rid)
        self._awaiting_order.pop(rid, None)
        self.phase(rid, SC, "abcast")
        self.phase(rid, EX)
        values, _updates = apply_request_to_store(self.store, request, self.rng)
        # Every replica answers; the client keeps the first response.
        self.respond(body["client"], request, committed=True, values=values)
