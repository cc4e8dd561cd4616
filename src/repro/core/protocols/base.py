"""Shared machinery for all replication protocol implementations.

Each technique from the paper is a :class:`ReplicaProtocol` subclass
instantiated once per replica node.  The subclass declares a
:class:`ProtocolInfo` (its row in the paper's classification figures) and
implements ``handle_request``; everything else — client messaging, phase
tracing, local transaction execution — is provided here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from ...db import TransactionManager, TransactionUpdates, UpdateRecord
from ...db.storage import DataStore
from ...errors import TransactionAborted
from ...groupcomm import check_abcast_flavour
from ...net import Message
from ..operations import Operation, Request, apply_update
from ..phases import AC, END, EX, RE, SC, PhaseDescriptor, PhaseTracer

if TYPE_CHECKING:  # pragma: no cover
    from ..system import ReplicaNode

__all__ = [
    "ProtocolInfo",
    "ReplicaProtocol",
    "run_transaction",
    "apply_request_to_store",
    "optimistic_execute",
    "CLIENT_REQUEST",
    "CLIENT_RESPONSE",
]

CLIENT_REQUEST = "client.request"
CLIENT_RESPONSE = "client.response"


@dataclass(frozen=True)
class ProtocolInfo:
    """One technique's coordinates in the paper's taxonomy.

    ``client_policy`` tells the client stub where requests go:
    ``"all"`` (address the group, Section 3), ``"primary"`` or ``"local"``
    (databases always contact one server, Section 4).
    """

    name: str
    title: str
    figure: str
    community: str                      # "ds" | "db"
    descriptor: PhaseDescriptor
    txn_descriptor: Optional[PhaseDescriptor] = None
    consistency: str = "strong"         # "strong" | "weak"
    client_policy: str = "local"        # "all" | "primary" | "local"
    failure_transparent: bool = False
    requires_determinism: bool = False
    propagation: Optional[str] = None   # "eager" | "lazy" (db only)
    update_location: Optional[str] = None  # "primary" | "everywhere" (db only)
    supports_multi_op: bool = True
    # Primary-copy schemes let read-only transactions run at any site
    # ("Reading transactions can be performed on any site", Section 4.3);
    # when set, clients route read-only requests to their home replica.
    reads_anywhere: bool = False
    # Whether the technique serves interactive transaction sessions
    # (Section 5's "operations not necessarily available for processing
    # at the same time") — the protocols with per-operation loops.
    supports_sessions: bool = False

    def descriptor_for(self, operation_count: int) -> PhaseDescriptor:
        if operation_count > 1 and self.txn_descriptor is not None:
            return self.txn_descriptor
        return self.descriptor


class ReplicaProtocol:
    """Base class for per-replica protocol instances.

    Subclasses receive the hosting :class:`ReplicaNode` (which carries the
    transaction manager, transport, detector and tracer) plus the replica
    group, and register any message handlers they need in ``__init__``.
    """

    info: ProtocolInfo

    # How long an in-flight request suppresses re-admission of a retry
    # with the same id.  Longer than a 2PC round under COORDINATION_TIMEOUT,
    # shorter than a client deadline budget: a stuck execution eventually
    # lets a retry through instead of swallowing it forever.
    _SERVING_TTL = 90.0

    def __init__(self, replica: "ReplicaNode", group: List[str], config: dict) -> None:
        self.replica = replica
        self.group = list(group)
        self.config = dict(config)
        # Techniques pick their ABCAST from config["abcast"] with literal
        # constructor calls; a misspelt flavour must not fall through to
        # the default protocol.
        check_abcast_flavour(self.config.get("abcast", "consensus"))
        # request_id -> admission time of the execution currently running
        # here.  Guards against a client retry re-entering handle_request
        # while the first execution is still in flight (which would start
        # a second transaction under the same id).  Volatile: cleared on
        # host crash.
        self._serving: Dict[str, float] = {}
        replica.node.on(CLIENT_REQUEST, self._on_client_request)

    # -- to implement ------------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        """Process a client request arriving at this replica."""
        raise NotImplementedError

    # -- common helpers -------------------------------------------------------

    def _on_client_request(self, message: Message) -> None:
        request = Request.from_wire(message["request"])
        # Duplicate-reply cache: a request this replica already committed
        # (same idempotency key — a client retry or a duplicated packet)
        # is answered from the cache, never re-executed.  This is what
        # keeps counters exact under retry storms: at-least-once delivery
        # plus server-side dedup is exactly-once execution.
        cached = self.replica.cached_reply(request.idempotency_key)
        if cached is not None:
            self.respond(message.src, request, committed=True, values=cached)
            return
        # Deadline budget: if the client has already given up on this
        # envelope there is no point acquiring locks or running a
        # coordination round for it — shed it with an explicit abort (the
        # reply costs one message and is dropped if the client is gone).
        if message.deadline is not None and self.sim.now > message.deadline:
            self.respond(message.src, request, committed=False,
                         reason="deadline exceeded")
            return
        started = self._serving.get(request.request_id)
        if started is not None and self.sim.now - started < self._SERVING_TTL:
            # Already executing here: the in-flight run will respond (the
            # client matches replies by request id, not by attempt).
            return
        if self.busy_elsewhere(request):
            # Another replica's execution of this request is in flight and
            # its outcome is unknown here (e.g. a buffered 2PC workspace
            # from a delegate that since crashed).  Starting a second,
            # independent execution could double-apply; stay silent — the
            # client's next retry lands after the decision has resolved,
            # hitting either the duplicate-reply cache or a clean slate.
            return
        self._serving[request.request_id] = self.sim.now
        self.phase(request.request_id, RE)
        self.handle_request(request, message.src)

    def respond(
        self,
        client: str,
        request: Request,
        committed: bool,
        values: Optional[List[Any]] = None,
        reason: str = "",
    ) -> None:
        """Send the END-phase response back to the client.

        Committed replies are remembered in the hosting replica's
        duplicate-reply cache keyed by the request's idempotency key, so a
        retried request is answered without re-execution.
        """
        if committed:
            self.replica.remember_reply(request.idempotency_key, list(values or []))
        self._serving.pop(request.request_id, None)
        self.phase(request.request_id, END)
        self.replica.node.send(
            client,
            CLIENT_RESPONSE,
            request_id=request.request_id,
            committed=committed,
            values=list(values or []),
            reason=reason,
            server=self.replica.name,
        )

    def phase(self, request_id: object, phase: str, mechanism: str = "") -> None:
        """Report a phase transition to the system-wide tracer."""
        self.replica.tracer.record(self.replica.name, request_id, phase, mechanism)

    @property
    def sim(self):
        return self.replica.node.sim

    @property
    def tm(self) -> TransactionManager:
        return self.replica.tm

    @property
    def store(self) -> DataStore:
        return self.replica.tm.store

    @property
    def rng(self) -> random.Random:
        return self.replica.rng

    def peers(self) -> List[str]:
        return [name for name in self.group if name != self.replica.name]

    def busy_elsewhere(self, request: Request) -> bool:
        """Is another replica's execution of ``request`` in flight here?

        Protocols with cross-replica execution state (2PC workspaces)
        override this so a retried request is not re-admitted while the
        first execution's outcome is still undecided at this site.
        """
        return False

    def on_crash(self) -> None:
        """Hook: the hosting replica crashed (volatile state is gone)."""

    def on_recover(self) -> None:
        """Hook: the hosting replica restarted."""


# ---------------------------------------------------------------------------
# Execution engines shared by the protocols
# ---------------------------------------------------------------------------

def run_transaction(
    tm: TransactionManager,
    request: Request,
    rng: random.Random,
    txn_id: Optional[object] = None,
) -> Generator:
    """Execute a request as a local strict-2PL transaction (sim process).

    Returns ``(values, updates)`` on commit; raises
    :class:`TransactionAborted` (after rolling back) on deadlock or lock
    timeout.  ``values`` holds one entry per operation: the value read, the
    new value for updates, None for blind writes.
    """
    txn = tm.begin(txn_id)
    values: List[Any] = []
    try:
        for op in request.operations:
            if op.kind == "read":
                values.append((yield txn.read(op.item)))
            elif op.kind == "write":
                yield txn.write(op.item, op.argument)
                values.append(None)
            else:
                current = yield txn.read(op.item)
                new_value = apply_update(op.func, current, op.argument, rng)
                yield txn.write(op.item, new_value)
                values.append(new_value)
        updates = txn.commit()
    except TransactionAborted:
        txn.abort("execution failed")
        raise
    return values, updates


def apply_request_to_store(
    store: DataStore, request: Request, rng: random.Random
) -> Tuple[List[Any], TransactionUpdates]:
    """State-machine execution: apply a request directly to the store.

    Used where the protocol has already serialised requests (active
    replication executes in ABCAST delivery order, one at a time), so no
    locking is necessary.  Returns ``(values, updates)``.
    """
    values: List[Any] = []
    records: List[UpdateRecord] = []
    for op in request.operations:
        if op.kind == "read":
            values.append(store.read(op.item))
        elif op.kind == "write":
            version = store.write(op.item, op.argument)
            records.append(UpdateRecord(op.item, op.argument, version))
            values.append(None)
        else:
            new_value = apply_update(op.func, store.read(op.item), op.argument, rng)
            version = store.write(op.item, new_value)
            records.append(UpdateRecord(op.item, new_value, version))
            values.append(new_value)
    return values, TransactionUpdates(request.request_id, tuple(records))


def optimistic_execute(
    store: DataStore, request: Request, rng: random.Random
) -> Tuple[List[Any], Dict[str, int], List[UpdateRecord], Dict[str, int]]:
    """Shadow-copy execution for certification-based replication.

    Reads the committed store without taking locks, recording the version
    of everything read; buffers writes without applying them.  Returns
    ``(values, readset, writeset, base_versions)`` — the material that is
    atomically broadcast for certification (Section 5.4.2).
    ``base_versions`` records, per written item, the committed version the
    write was computed against (the input of first-committer-wins
    validation).
    """
    values: List[Any] = []
    readset: Dict[str, int] = {}
    shadow: Dict[str, Any] = {}
    writeset: List[UpdateRecord] = []
    base_versions: Dict[str, int] = {}

    def read(item: str) -> Any:
        if item in shadow:
            return shadow[item]
        readset.setdefault(item, store.version(item))
        return store.read(item)

    def write(item: str, value: Any) -> None:
        base_versions.setdefault(item, store.version(item))
        shadow[item] = value

    for op in request.operations:
        if op.kind == "read":
            values.append(read(op.item))
        elif op.kind == "write":
            write(op.item, op.argument)
            values.append(None)
        else:
            new_value = apply_update(op.func, read(op.item), op.argument, rng)
            write(op.item, new_value)
            values.append(new_value)
    for item, value in shadow.items():
        writeset.append(UpdateRecord(item, value, 0))
    return values, readset, writeset, base_versions
