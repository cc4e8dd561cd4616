"""System builder: wire replicas, clients and a protocol into a simulation.

:class:`ReplicatedSystem` is the library's main entry point.  It builds the
substrate stack (simulator, network, failure detectors, transaction
managers), instantiates the chosen replication technique on every replica,
and hands out uniform clients — so the same workload can be swept across
all of the paper's techniques, which is exactly what the Section 6
performance-study benchmarks do.

>>> from repro import ReplicatedSystem, Operation
>>> system = ReplicatedSystem("active", replicas=3, seed=7)
>>> result = system.execute([Operation.write("x", 1)])
>>> result.committed
True
"""

from __future__ import annotations

import itertools
import random
import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from ..db import TransactionManager
from ..errors import ReplicationError
from ..failures import FailureDetector, FailureInjector
from ..groupcomm import ReliableTransport
from ..net import ConstantLatency, LatencyModel, Message, Network, Node
from ..obs import Observer
from ..sim import Future, Simulator, TraceLog
from .admission import AdmissionConfig, AdmissionController
from .operations import Operation, Request, Result
from .phases import PhaseTracer, RE
from .protocols import REGISTRY
from .protocols.base import CLIENT_REQUEST, CLIENT_RESPONSE, ProtocolInfo
from .sessions import TransactionSession

__all__ = ["Directory", "ReplicaNode", "ClientNode", "ReplicatedSystem"]


class Directory:
    """Naming service: which replicas exist and which is the primary.

    The paper assumes clients can locate the (current) primary — after a
    failover "a human operator can reconfigure the system" (Section 4.3
    footnote) or the group membership does it (Section 3.3).  Both paths
    end up updating this directory.
    """

    def __init__(self, members: List[str]) -> None:
        self.members = list(members)
        self.primary = members[0]
        self.changes = 0

    def set_primary(self, name: str) -> None:
        if name not in self.members:
            raise ReplicationError(f"{name} is not a group member")
        if name != self.primary:
            self.primary = name
            self.changes += 1

    def __repr__(self) -> str:
        return f"<Directory primary={self.primary} members={self.members}>"


class _HostNode(Node):
    """Network node that forwards crash/recover events to its owner."""

    def __init__(self, sim, network, name, owner) -> None:
        self._owner = owner
        super().__init__(sim, network, name)

    def on_crash(self) -> None:
        self._owner._host_crashed()

    def on_recover(self) -> None:
        self._owner._host_recovered()


class ReplicaNode:
    """One replica: node + transaction manager + groupcomm endpoints.

    The protocol instance lives in ``self.protocol`` and registers its
    message handlers against ``self.node``.
    """

    def __init__(
        self,
        system: "ReplicatedSystem",
        name: str,
        fd_interval: float,
        fd_timeout: float,
        lock_timeout: Optional[float],
    ) -> None:
        self.system = system
        self.name = name
        self.node = _HostNode(system.sim, system.net, name, self)
        self.tm = TransactionManager(
            system.sim, site=name, lock_timeout=lock_timeout, obs=system.observer
        )
        self.transport = ReliableTransport(self.node)
        self.detector = FailureDetector(
            self.node,
            system.replica_names,
            interval=fd_interval,
            timeout=fd_timeout,
            trace=system.trace,
        )
        # Per-replica RNG: non-deterministic operations draw from it, so
        # two replicas executing the same request can legitimately diverge
        # (the scenario motivating passive/semi-active replication).
        # crc32, not hash(): str hashing is salted per process, which would
        # give two invocations of the same seed different replica streams.
        self.rng = random.Random(
            (system.seed or 0) * 10007 + zlib.crc32(name.encode("utf-8")) % 99991
        )
        self.tracer = system.tracer
        self.protocol = None  # set by ReplicatedSystem
        # Duplicate-reply cache: idempotency key -> values of the committed
        # reply.  A retried request whose key is here is answered from the
        # cache instead of re-executed, which is what makes client retries
        # exactly-once (aborts are not cached: retrying them should rerun).
        # Survives crashes deliberately — it models durable server state,
        # like the applied-transaction log a recovering replica replays.
        self.reply_cache: Dict[str, List[Any]] = {}

    def remember_reply(self, idem_key: str, values: List[Any]) -> None:
        """Record the committed reply for ``idem_key`` (first write wins)."""
        if idem_key not in self.reply_cache:
            self.reply_cache[idem_key] = list(values)

    def cached_reply(self, idem_key: str) -> Optional[List[Any]]:
        """The committed values previously replied for ``idem_key``, if any."""
        return self.reply_cache.get(idem_key)

    @property
    def crashed(self) -> bool:
        return self.node.crashed

    def _host_crashed(self) -> None:
        if self.system.observer is not None:
            # Close this host's open phase spans as errors before the
            # teardown below makes the work they narrate unreachable.
            self.system.observer.on_node_crash(self.name)
        self.tm.abort_all_active("node crashed")
        # The lock table is volatile: locks granted to *remote*
        # transactions (not covered by abort_all_active) must not survive
        # a restart, or a dropped abort decision wedges them forever.
        self.tm.locks.reset()
        if self.protocol is not None:
            # The in-flight request journal is volatile state: whatever was
            # executing died with the node, so retries must be re-admitted.
            self.protocol._serving.clear()
            self.protocol.on_crash()

    def _host_recovered(self) -> None:
        if self.protocol is not None:
            self.protocol.on_recover()

    def __repr__(self) -> str:
        return f"<ReplicaNode {self.name} {'crashed' if self.crashed else 'up'}>"


class _Pending:
    """One outstanding request at a client edge, keyed by request id."""

    __slots__ = ("request", "future", "submitted_at", "deadline", "retries",
                 "timer", "targets", "reply")

    def __init__(self, request: Request, future: Future, submitted_at: float,
                 deadline: Optional[float]) -> None:
        self.request = request
        self.future = future
        self.submitted_at = submitted_at
        self.deadline = deadline
        self.retries = 0
        self.timer = None
        self.targets: List[str] = []
        self.reply: Optional[Future] = None  # per-attempt reply (ResilientClient)


class ClientNode:
    """A client of the replicated service: the system's one client edge.

    It owns the paper's Request (RE) and Response (END) phases.  ``submit``
    returns a future resolving to a :class:`Result`.  Routing follows the
    protocol's client policy:

    * ``"all"`` — send to every replica, keep the first response (the
      distributed-systems style; masks replica failures entirely).
    * ``"primary"`` — send to the directory's current primary; on timeout,
      re-resolve and retry (the database hot-standby style; failures are
      visible as latency).
    * ``"local"`` — stick to one home replica; on timeout, reconnect to the
      next live replica and re-submit, as Section 4.1 describes.

    The retry behaviour here is the paper's blocking client: it re-submits
    only when its server failed.  :class:`repro.resilience.ResilientClient`
    reuses this request path and swaps in backoff, a deadline budget and
    circuit breakers by overriding :meth:`_start`, :meth:`_targets` and
    :meth:`_on_reply`.
    """

    def __init__(
        self,
        system: "ReplicatedSystem",
        name: str,
        policy: str,
        home: str,
        timeout: Optional[float],
    ) -> None:
        self.system = system
        self.name = name
        self.policy = policy
        self.home = home
        self.timeout = timeout
        self.node = Node(system.sim, system.net, name)
        self.node.on(CLIENT_RESPONSE, self._on_response)
        self._pending: Dict[str, _Pending] = {}
        self._sequence = itertools.count(1)
        # Interactive sessions draw their ids here, so ids restart at 1 for
        # every fresh system and same-seed runs stay identical.
        self.session_ids = itertools.count(1)

    # -- public API -----------------------------------------------------------

    def submit(
        self,
        operations: Union[Operation, Iterable[Operation]],
        deadline: Optional[float] = None,
    ) -> Future:
        """Submit a request; returns a future resolving to a Result.

        ``deadline`` is an absolute simulated time after which the caller
        no longer wants the answer; it rides the message envelope so
        replicas can shed expired work, and the system's admission
        controller (when configured) refuses arrivals already past it.
        """
        if isinstance(operations, Operation):
            operations = [operations]
        request = Request.make(
            tuple(operations), client=self.name, sequence=next(self._sequence)
        )
        sim = self.system.sim
        record = _Pending(request, sim.future(label=f"result:{request.request_id}"),
                          sim.now, deadline)
        self._pending[request.request_id] = record
        if self.system.observer is not None:
            self.system.observer.on_request_submit(request.request_id, self.name)
        if self.system.admission is not None:
            self.system.admission.submit(self, record)
        else:
            self._start(record)
        return record.future

    def session(self, server: Optional[str] = None) -> TransactionSession:
        """Open an interactive transaction session (Section 5).

        The server defaults to the technique's natural contact point: the
        current primary for primary-copy techniques, this client's home
        replica otherwise.
        """
        if not self.system.info.supports_sessions:
            raise ReplicationError(
                f"{self.system.protocol_name} does not support interactive "
                "sessions (no per-operation coordination loop)"
            )
        if server is None:
            server = (
                self.system.directory.primary
                if self.policy == "primary"
                else self.home
            )
        return TransactionSession(self, server)

    # -- request path -----------------------------------------------------------

    def _start(self, record: _Pending) -> None:
        """Serve an admitted request: one attempt, re-armed by the timeout."""
        record.targets = self._targets(record)
        self._send(record, record.targets)
        if self.timeout is not None:
            record.timer = self.node.after(
                self.timeout, self._on_timeout, record.request.request_id
            )

    def _targets(self, record: _Pending) -> List[str]:
        if self.policy == "all":
            return list(self.system.replica_names)
        if self.policy == "primary":
            if record.request.read_only and self.system.info.reads_anywhere:
                return [self.home]
            return [self.system.directory.primary]
        return [self.home]

    def _send(self, record: _Pending, targets: List[str]) -> None:
        request = record.request
        observer = self.system.observer
        # Send inside the root span's context so the outgoing
        # client.request flights become its children.
        span = (observer.enter_request(request.request_id)
                if observer is not None else None)
        try:
            for target in targets:
                # Deadlines ride the envelope, not the payload, so replicas
                # can shed expired work without parsing the request.
                self.system.net.send(
                    self.name, target, CLIENT_REQUEST,
                    payload={"request": request.as_wire()},
                    deadline=record.deadline,
                )
        finally:
            if observer is not None:
                observer.exit_request(span)

    def _on_timeout(self, request_id: str) -> None:
        record = self._pending.get(request_id)
        if record is None:
            return
        # A client can tell a dead server from a slow one (its connection
        # breaks), so re-submission — which risks executing the request
        # twice — only happens when the contacted server actually failed
        # or a failover moved the primary elsewhere.  A merely slow server
        # (lock queues, blocking 2PC) keeps the client waiting: the
        # blocking behaviour the paper says databases accept.
        if self.policy != "all":
            target = record.targets[0] if record.targets else None
            target_alive = (
                target is not None and not self.system.replicas[target].crashed
            )
            if target_alive and self._targets(record)[0] == target:
                record.timer = self.node.after(
                    self.timeout, self._on_timeout, request_id
                )
                return
        record.retries += 1
        if record.retries > self.system.max_client_retries:
            self._finish(record, "client gave up")
            return
        if self.system.observer is not None:
            self.system.observer.metrics.inc("requests.resubmitted")
        # Reconnect: primaries are re-resolved from the directory; local
        # clients fail over to the next live replica.
        if self.policy == "local" and self.system.replicas[self.home].crashed:
            self.home = self.system.next_live_replica(self.home)
        self._start(record)

    def _on_response(self, message: Message) -> None:
        record = self._pending.get(message["request_id"])
        if record is None:
            return  # duplicate response (e.g. active replication's n replies)
        self._on_reply(record, {
            "committed": message["committed"],
            "values": message["values"],
            "reason": message["reason"],
            "server": message["server"],
        })

    def _on_reply(self, record: _Pending, reply: Dict[str, Any]) -> None:
        """The first reply settles the request."""
        self._finish(record, **reply)

    def _finish(self, record: _Pending, reason: str, committed: bool = False,
                values: Iterable[Any] = (), server: str = "") -> Result:
        """Settle a request: build its Result and resolve its future."""
        request = record.request
        self._pending.pop(request.request_id, None)
        if record.timer is not None:
            record.timer.cancel()
        result = Result(
            request_id=request.request_id,
            committed=committed,
            values=list(values),
            reason=reason,
            submitted_at=record.submitted_at,
            completed_at=self.system.sim.now,
            server=server,
            retries=record.retries,
            operations=request.operations,
        )
        if self.system.observer is not None:
            self.system.observer.on_request_complete(
                result.request_id, committed, reason=reason, retries=result.retries
            )
        record.future.set_result(result)
        return result

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name} policy={self.policy} "
                f"home={self.home}>")


class ReplicatedSystem:
    """A complete replicated service running one technique.

    Parameters
    ----------
    protocol:
        Registry name: ``"active"``, ``"passive"``, ``"semi_active"``,
        ``"semi_passive"``, ``"eager_primary"``, ``"eager_ue_locking"``,
        ``"eager_ue_abcast"``, ``"lazy_primary"``, ``"lazy_ue"``,
        ``"certification"``.
    replicas, clients:
        How many replica sites and client processes to build.
    seed, latency, loss_rate:
        Simulation determinism and network model.
    fd_interval, fd_timeout:
        Failure-detection aggressiveness.
    client_timeout:
        Client retry timeout; defaults to None for transparent (policy
        ``"all"``) techniques and 120 time units otherwise.
    config:
        Protocol-specific options (documented per protocol class).
    observe:
        When true, build a :class:`~repro.obs.Observer` and thread it
        through the network, phase tracer and transaction managers: every
        client request opens a root span, and message flights, handler
        invocations, phases and lock waits become child spans.  Metrics
        accumulate in ``system.observer.metrics``.  Off by default — an
        unobserved run takes the exact same scheduling decisions.
    trace_max_events:
        Optional ring-buffer bound on the structured trace log (oldest
        events are discarded past the bound); ``None`` keeps everything.
    admission:
        Optional :class:`~repro.core.admission.AdmissionConfig`: gate
        every client submit through token-bucket throttling, a bounded
        leveling queue and deadline shedding (see docs/workloads.md).
        ``None`` (the default) leaves submits ungated.
    """

    def __init__(
        self,
        protocol: str,
        replicas: int = 3,
        clients: int = 1,
        seed: Optional[int] = 0,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        fd_interval: float = 2.0,
        fd_timeout: float = 8.0,
        lock_timeout: Optional[float] = 60.0,
        client_timeout: Optional[float] = None,
        max_client_retries: int = 10,
        config: Optional[dict] = None,
        observe: bool = False,
        trace_max_events: Optional[int] = None,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        if protocol not in REGISTRY:
            raise ReplicationError(
                f"unknown protocol {protocol!r}; available: {sorted(REGISTRY)}"
            )
        self.protocol_name = protocol
        self.protocol_cls = REGISTRY[protocol]
        self.info: ProtocolInfo = self.protocol_cls.info
        self.seed = seed
        self.sim = Simulator(seed=seed)
        self.trace = TraceLog(self.sim, max_events=trace_max_events)
        self.observer: Optional[Observer] = Observer(self.sim) if observe else None
        if self.observer is not None:
            self.observer.attach(self.trace)
            # Windowed telemetry: sample gauges (breaker states, derived
            # end-of-run values) at every bucket boundary.  The tick hook
            # fires inline from the event loop without scheduling events,
            # so observation stays neutral to the run.
            self.observer.attach_sampler(self.sim)
        self.tracer = PhaseTracer(self.trace, obs=self.observer)
        self.net = Network(
            self.sim,
            latency=latency if latency is not None else ConstantLatency(1.0),
            loss_rate=loss_rate,
            obs=self.observer,
        )
        self.injector = FailureInjector(self.sim, self.net, trace=self.trace)
        self.replica_names = [f"r{i}" for i in range(replicas)]
        self.directory = Directory(self.replica_names)
        self.max_client_retries = max_client_retries
        self.config = dict(config or {})
        # Admission control at the system edge (open-loop workloads): when
        # absent, submits dispatch directly and nothing changes in the
        # event schedule of existing closed-loop runs.
        self.admission: Optional[AdmissionController] = (
            AdmissionController(self, admission) if admission is not None else None
        )

        self.replicas: Dict[str, ReplicaNode] = {}
        for name in self.replica_names:
            self.replicas[name] = ReplicaNode(
                self, name, fd_interval, fd_timeout, lock_timeout
            )
        for name, replica in self.replicas.items():
            replica.protocol = self.protocol_cls(replica, self.replica_names, self.config)

        if client_timeout is None and self.info.client_policy != "all":
            client_timeout = 120.0
        self.clients: List[ClientNode] = []
        for i in range(clients):
            home = self.replica_names[i % replicas]
            self.clients.append(
                ClientNode(self, f"c{i}", self.info.client_policy, home, client_timeout)
            )

    # -- convenience -----------------------------------------------------------

    def client(self, index: int = 0) -> ClientNode:
        return self.clients[index]

    def submit(
        self, operations: Union[Operation, Iterable[Operation]], client: int = 0
    ) -> Future:
        """Submit through a client; phases begin with the RE record."""
        return self.clients[client].submit(operations)

    def execute(
        self,
        operations: Union[Operation, Iterable[Operation]],
        client: int = 0,
        max_events: int = 10_000_000,
    ) -> Result:
        """Submit and run the simulation until the result is known."""
        future = self.submit(operations, client=client)
        return self.sim.run_until_done(future, max_events=max_events)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def settle(self, extra_time: float = 500.0) -> None:
        """Run past all pending activity (lazy propagation, view changes)."""
        self.sim.run(until=self.sim.now + extra_time)

    # -- replica access -----------------------------------------------------------

    def replica(self, name: str) -> ReplicaNode:
        return self.replicas[name]

    def protocol_at(self, name: str):
        return self.replicas[name].protocol

    def store_of(self, name: str):
        return self.replicas[name].tm.store

    def next_live_replica(self, after: str) -> str:
        names = self.replica_names
        start = (names.index(after) + 1) % len(names) if after in names else 0
        for offset in range(len(names)):
            candidate = names[(start + offset) % len(names)]
            if not self.replicas[candidate].crashed:
                return candidate
        return after

    def live_replicas(self) -> List[str]:
        return [n for n in self.replica_names if not self.replicas[n].crashed]

    # -- convergence oracle ------------------------------------------------------

    def converged(self, values_only: bool = True, live_only: bool = True) -> bool:
        """Do all (live) replicas hold identical data?"""
        names = self.live_replicas() if live_only else self.replica_names
        if not names:
            return True
        digests = {
            name: (
                self.store_of(name).values_digest()
                if values_only
                else self.store_of(name).digest()
            )
            for name in names
        }
        return len(set(digests.values())) == 1

    def divergent_replicas(self) -> Dict[str, tuple]:
        """Per-live-replica value digests (debugging aid)."""
        return {name: self.store_of(name).values_digest() for name in self.live_replicas()}

    def __repr__(self) -> str:
        return (
            f"<ReplicatedSystem {self.protocol_name} replicas={len(self.replicas)} "
            f"clients={len(self.clients)} t={self.sim.now:.1f}>"
        )
