"""Lock manager: strict two-phase locking with deadlock handling.

Implements the concurrency-control substrate the paper's database
protocols assume ("Isolation is provided by concurrency control mechanisms
such as locking protocols [BHG87]"):

* shared (read) and exclusive (write) locks with FIFO wait queues,
* lock upgrades (read -> write) for the sole holder,
* local deadlock detection on the wait-for graph, aborting the youngest
  transaction in the cycle,
* optional lock-wait timeouts — the classical resolution for *distributed*
  deadlocks in eager update-everywhere replication, where no site sees the
  global wait-for graph (Section 4.4.1).

Locks are acquired through futures so simulated processes block in
simulated time: ``yield lock_manager.acquire(txn, item, "w")``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

from ..errors import TransactionAborted
from ..sim import Future, Simulator

__all__ = ["LockManager", "READ", "WRITE"]

READ = "r"
WRITE = "w"


class _Request:
    __slots__ = ("txn", "mode", "future", "timer", "span", "wait_start")

    def __init__(self, txn, mode: str, future: Future, timer=None) -> None:
        self.txn = txn
        self.mode = mode
        self.future = future
        self.timer = timer
        self.span = None          # observability: open lock-wait span
        self.wait_start = 0.0


class LockManager:
    """One site's lock table.

    Transactions are identified by hashable ids.  The manager records the
    arrival order of transactions and uses it as age for deadlock victim
    selection (youngest dies), the standard policy that avoids starving
    long-running transactions.
    """

    def __init__(self, sim: Simulator, name: str = "", obs=None) -> None:
        self.sim = sim
        self.name = name
        self.obs = obs  # optional duck-typed observer (repro.obs)
        self._holders: Dict[str, Dict[object, str]] = {}
        self._queues: Dict[str, List[_Request]] = {}
        # Insertion-ordered sets (dict keys): release_all wakes waiters in
        # this order, which must not depend on string hashing.
        self._held_by_txn: Dict[object, Dict[str, None]] = {}
        self._ages: Dict[object, int] = {}
        self._grant_times: Dict[Tuple[object, str], float] = {}
        self._arrivals = itertools.count(1)
        self.deadlocks_detected = 0
        self.timeouts = 0

    # -- acquisition ---------------------------------------------------------

    def acquire(
        self, txn: object, item: str, mode: str, timeout: Optional[float] = None
    ) -> Future:
        """Request a lock; the returned future resolves when granted.

        Fails with :class:`TransactionAborted` if the request is chosen as
        a deadlock victim or ``timeout`` expires first.
        """
        if mode not in (READ, WRITE):
            raise ValueError(f"unknown lock mode {mode!r}")
        if self.obs is not None:
            # Record the request itself (not just contention) so recorded
            # traffic can be cross-validated against the static wait graph.
            hook = getattr(self.obs, "on_lock_acquire", None)
            if hook is not None:
                hook(self.name, txn, item, mode)
        self._ages.setdefault(txn, next(self._arrivals))
        future = self.sim.future(label=f"lock:{item}:{mode}:{txn}")
        if self._can_grant(txn, item, mode):
            self._grant(txn, item, mode)
            if self.obs is not None:
                self.obs.on_lock_granted(None, 0.0)
            future.set_result(True)
            return future
        request = _Request(txn, mode, future)
        if self.obs is not None:
            request.span = self.obs.on_lock_wait(self.name, txn, item, mode)
            request.wait_start = self.sim.now
        if timeout is not None:
            request.timer = self.sim.schedule(timeout, self._expire, item, request)
        self._queues.setdefault(item, []).append(request)
        self._detect_deadlock(item, txn)
        return future

    def _can_grant(self, txn: object, item: str, mode: str) -> bool:
        holders = self._holders.get(item, {})
        queue = self._queues.get(item, [])
        held = holders.get(txn)
        if held == WRITE or held == mode:
            return True  # re-entrant / already sufficient
        if held == READ and mode == WRITE:
            # Upgrade: only if sole holder (queue state is irrelevant —
            # upgrades jump the queue to avoid trivial upgrade deadlock).
            return len(holders) == 1
        others = {t: m for t, m in holders.items() if t != txn}
        if mode == READ:
            # Fairness: readers must not overtake queued writers.
            writer_queued = any(r.mode == WRITE for r in queue)
            return not writer_queued and all(m == READ for m in others.values())
        return not others

    def _grant(self, txn: object, item: str, mode: str) -> None:
        holders = self._holders.setdefault(item, {})
        current = holders.get(txn)
        holders[txn] = WRITE if WRITE in (current, mode) else READ
        self._held_by_txn.setdefault(txn, {})[item] = None
        if self.obs is not None:
            self._grant_times.setdefault((txn, item), self.sim.now)

    # -- release -----------------------------------------------------------------

    def release_all(self, txn: object) -> None:
        """Release every lock held or requested by ``txn`` (strict 2PL)."""
        for item in self._held_by_txn.pop(txn, {}):
            holders = self._holders.get(item, {})
            holders.pop(txn, None)
            if not holders:
                self._holders.pop(item, None)
            if self.obs is not None:
                granted_at = self._grant_times.pop((txn, item), None)
                if granted_at is not None:
                    self.obs.on_lock_released(self.sim.now - granted_at)
            self._wake(item)
        # Remove any still-queued requests (aborted while waiting).
        for item, queue in list(self._queues.items()):
            kept = [r for r in queue if r.txn != txn]
            removed = [r for r in queue if r.txn is txn or r.txn == txn]
            for request in removed:
                self._cancel_request(request)
            if kept:
                self._queues[item] = kept
            else:
                self._queues.pop(item, None)
            if removed:
                self._wake(item)
        self._ages.pop(txn, None)

    def _cancel_request(self, request: _Request) -> None:
        if request.timer is not None:
            request.timer.cancel()

    def reset(self) -> None:
        """Drop the entire lock table (host crash: lock state is volatile).

        Releases local *and* remotely-granted locks — without this, a
        write lock granted to another site's transaction would survive a
        crash/recovery cycle and, the granting delegate's abort having
        been dropped while this host was down, wedge the item forever.
        Queued waiters are cancelled without resolution: the processes
        waiting on them died with the host.
        """
        for queue in self._queues.values():
            for request in queue:
                self._cancel_request(request)
        self._queues.clear()
        self._holders.clear()
        self._held_by_txn.clear()
        self._ages.clear()
        self._grant_times.clear()

    def _wake(self, item: str) -> None:
        queue = self._queues.get(item)
        if not queue:
            return
        granted = True
        while granted and queue:
            head = queue[0]
            if head.future.done:
                queue.pop(0)
                continue
            if self._can_grant(head.txn, item, head.mode):
                queue.pop(0)
                self._cancel_request(head)
                self._grant(head.txn, item, head.mode)
                if self.obs is not None:
                    self.obs.on_lock_granted(
                        head.span, self.sim.now - head.wait_start
                    )
                head.future.set_result(True)
            else:
                granted = False
        if not queue:
            self._queues.pop(item, None)

    # -- failure paths -----------------------------------------------------------

    def _expire(self, item: str, request: _Request) -> None:
        queue = self._queues.get(item, [])
        if request not in queue or request.future.done:
            return
        queue.remove(request)
        self.timeouts += 1
        if self.obs is not None:
            self.obs.on_lock_failed(request.span, "timeout")
        request.future.set_exception(
            TransactionAborted(request.txn, "lock wait timeout")
        )
        self._wake(item)

    def _detect_deadlock(self, item: str, txn: object) -> None:
        cycle = self._find_cycle(txn)
        if not cycle:
            return
        victim = max(cycle, key=lambda t: self._ages.get(t, 0))
        self.deadlocks_detected += 1
        if self.obs is not None:
            self.obs.on_deadlock()
        self._abort_waiting(victim)

    def _abort_waiting(self, victim: object) -> None:
        """Fail all of the victim's queued requests with a deadlock abort."""
        for item, queue in list(self._queues.items()):
            remaining = []
            for request in queue:
                if request.txn == victim and not request.future.done:
                    self._cancel_request(request)
                    if self.obs is not None:
                        self.obs.on_lock_failed(request.span, "deadlock")
                    request.future.set_exception(
                        TransactionAborted(victim, "deadlock victim")
                    )
                else:
                    remaining.append(request)
            if remaining:
                self._queues[item] = remaining
            else:
                self._queues.pop(item, None)
            self._wake(item)

    def _find_cycle(self, start: object) -> Optional[List[object]]:
        """DFS over the wait-for graph; returns a cycle containing start."""
        graph = self._wait_for_graph()
        path: List[object] = []
        on_path: Set[object] = set()
        visited: Set[object] = set()

        def dfs(txn: object) -> Optional[List[object]]:
            visited.add(txn)
            path.append(txn)
            on_path.add(txn)
            for waited_on in graph.get(txn, ()):  # noqa: B007
                if waited_on in on_path:
                    return path[path.index(waited_on):]
                if waited_on not in visited:
                    cycle = dfs(waited_on)
                    if cycle is not None:
                        return cycle
            path.pop()
            on_path.discard(txn)
            return None

        return dfs(start)

    def _wait_for_graph(self) -> Dict[object, Dict[object, None]]:
        # Edge sets are dict keys so the cycle search visits them in a
        # hash-independent order.
        graph: Dict[object, Dict[object, None]] = {}
        for item, queue in self._queues.items():
            holders = self._holders.get(item, {})
            ahead: List[_Request] = []
            for request in queue:
                edges = graph.setdefault(request.txn, {})
                for holder, mode in holders.items():
                    if holder != request.txn and (
                        request.mode == WRITE or mode == WRITE
                    ):
                        edges[holder] = None
                for earlier in ahead:
                    if earlier.txn != request.txn and (
                        request.mode == WRITE or earlier.mode == WRITE
                    ):
                        edges[earlier.txn] = None
                ahead.append(request)
        return graph

    # -- introspection ----------------------------------------------------------

    def holders_of(self, item: str) -> Dict[object, str]:
        return dict(self._holders.get(item, {}))

    def holds(self, txn: object, item: str, mode: str) -> bool:
        held = self._holders.get(item, {}).get(txn)
        return held == WRITE or held == mode

    def holding_transactions(self) -> Set[object]:
        """All transactions currently holding at least one lock."""
        txns: Set[object] = set()
        for holders in self._holders.values():
            txns.update(holders)
        return txns

    def waiting_count(self, item: Optional[str] = None) -> int:
        if item is not None:
            return len(self._queues.get(item, []))
        return sum(len(q) for q in self._queues.values())

    def __repr__(self) -> str:
        return (
            f"<LockManager {self.name} locked_items={len(self._holders)} "
            f"waiting={self.waiting_count()}>"
        )
