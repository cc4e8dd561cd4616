"""The resilient client edge.

:class:`ResilientClient` is a production-style client stub: a
:class:`repro.core.system.ClientNode` whose retry behaviour adds the
robustness mechanics real client libraries have:

* **retry with exponential backoff + jitter** — deterministic: all
  randomness draws from the client's named simulator stream, so same-seed
  runs are byte-identical (see :class:`~repro.resilience.retry.RetryPolicy`);
* **per-request deadline budgets** — the absolute give-up time rides on
  the :class:`~repro.net.Message` envelope, and servers shed requests
  whose budget already expired instead of working for an absent client;
* **per-node circuit breakers** — closed/open/half-open with an obs
  gauge (see :class:`~repro.resilience.breaker.CircuitBreaker`);
* **idempotency keys** — retries resend the *same* request id, and the
  server-side duplicate-reply cache (``ReplicaNode.reply_cache``) replays
  the committed answer instead of re-executing, making retries
  exactly-once even across a primary failover.

Unlike the base ``ClientNode`` — the paper's blocking database client,
which waits forever for a slow server — the resilient edge retries through
message loss, duplication and gray failure, and gives up definitively
when its deadline budget is exhausted.

Outcome taxonomy: a reply with ``committed=True`` or a definitive abort
(lock timeout, deadlock, 2PC no-vote, certification conflict) finishes
the request; ``"not primary"`` routing misses and server-side deadline
sheds are retried against a re-resolved target; network silence is
retried with backoff until the deadline budget runs out, which yields an
*indeterminate* abort (``reason="deadline exceeded"``) — the one outcome
whose server-side effect the client cannot know.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Union

from ..core.operations import Operation
from ..core.system import ClientNode, _Pending
from ..sim import Future
from .breaker import CircuitBreaker
from .retry import RetryPolicy

__all__ = ["ResilientClient"]

# Abort reasons that indicate the request never ran and should be retried
# against a (possibly re-resolved) target rather than reported.
_ROUTING_PREFIXES = ("not primary", "deadline exceeded")


class ResilientClient(ClientNode):
    """Retrying, breaker-guarded, deadline-budgeted client edge.

    Request creation, policy routing, the deadline-stamped send, reply
    matching and :class:`~repro.core.operations.Result` construction are
    :class:`~repro.core.system.ClientNode`'s; this class replaces only the
    retry behaviour around them.

    Parameters
    ----------
    system:
        The :class:`~repro.core.system.ReplicatedSystem` to talk to.  The
        client registers its own node on the system's network and follows
        the technique's declared client policy (all/primary/local).
    index:
        Distinguishes multiple resilient clients: names the node
        (``rc<index>``) and picks the home replica round-robin.
    request_timeout:
        Per-attempt silence budget before the attempt is declared failed
        and retried.
    deadline:
        Per-request total budget in simulated time.  Stamped on every
        outgoing envelope; when it runs out the request finishes with an
        indeterminate ``"deadline exceeded"`` abort.
    retry:
        The :class:`RetryPolicy`; defaults are sized for the default
        one-unit-latency network.
    breaker_threshold / breaker_reset:
        Circuit-breaker tuning, applied per replica.
    """

    def __init__(
        self,
        system: Any,
        index: int = 0,
        name: Optional[str] = None,
        request_timeout: float = 30.0,
        deadline: float = 400.0,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 45.0,
    ) -> None:
        replicas = system.replica_names
        super().__init__(system, name or f"rc{index}", system.info.client_policy,
                         replicas[index % len(replicas)], timeout=None)
        self.request_timeout = request_timeout
        self.deadline = deadline
        self.retry = retry if retry is not None else RetryPolicy()
        # Client-owned randomness: jitter draws must not perturb the
        # simulator's main stream (or each other's, across clients).
        self.rng = system.sim.stream(f"resilience.{self.name}")
        self.breakers: Dict[str, CircuitBreaker] = {
            replica: CircuitBreaker(
                system.sim,
                failure_threshold=breaker_threshold,
                reset_timeout=breaker_reset,
                name=f"{self.name}->{replica}",
                obs=system.observer,
            )
            for replica in replicas
        }

    # -- public API --------------------------------------------------------

    def submit(
        self,
        operations: Union[Operation, Iterable[Operation]],
        deadline: Optional[float] = None,
    ) -> Future:
        """Submit a request; returns a future resolving to a Result.

        The future *always* resolves by the deadline budget (or the
        earlier absolute ``deadline``): with the committed reply, a
        definitive abort, or an indeterminate ``"deadline exceeded"`` abort.
        """
        budget = self.system.sim.now + self.deadline
        if deadline is None or deadline > budget:
            deadline = budget
        return super().submit(operations, deadline=deadline)

    # -- the retry loop ----------------------------------------------------

    def _start(self, record: _Pending) -> None:
        self.node.spawn(
            self._drive(record), name=f"rc-drive-{record.request.request_id}"
        )

    def _drive(self, record: _Pending):
        sim = self.system.sim
        rid = record.request.request_id
        give_up_at = record.deadline
        observer = self.system.observer
        attempt = 0
        record.reply = sim.future(label=f"rc-reply:{rid}")
        verdict: Optional[Dict[str, Any]] = None
        reason = ""
        # Set once any attempt times out: from then on the request's
        # server-side fate is unknown (a silent attempt may still be
        # executing behind locks and commit later), so a definitive abort
        # from a *later* attempt no longer proves "no effect".
        fate_unknown = False

        while verdict is None:
            remaining = give_up_at - sim.now
            if remaining <= 0:
                reason = "deadline exceeded"
                break
            if attempt >= self.retry.max_attempts:
                reason = "retry budget exhausted"
                break
            targets = self._targets(record)
            if not targets:
                # Every candidate's breaker is open: wait out the shortest
                # cool-down (bounded by the deadline) and re-evaluate.
                pause = max(min(self._shortest_reopen(), remaining), 1.0)
                yield sim.timeout(pause)
                continue
            attempt += 1
            record.retries = attempt - 1
            if attempt > 1 and observer is not None:
                observer.metrics.inc("resilience.retries")
            self._send(record, targets)
            wait = min(self.request_timeout, remaining)
            index, value = yield sim.any_of(
                [record.reply, sim.timeout(wait)], label=f"rc-wait:{rid}"
            )
            if index == 0:
                # Re-arm for a potential next attempt before classifying.
                record.reply = sim.future(label=f"rc-reply:{rid}")
                breaker = self.breakers.get(value["server"])
                if breaker is not None:
                    breaker.record_success()
                if value["committed"]:
                    verdict = value
                    break
                if not self._retryable(value["reason"]):
                    if not fate_unknown:
                        verdict = value
                        break
                    # Tainted abort: this attempt aborted cleanly, but an
                    # earlier attempt of the same id went silent and may
                    # still commit (e.g. stuck behind locks at a lagging
                    # replica).  Settling now — and resubmitting under a
                    # fresh id — could orphan that commit and double-apply.
                    # Keep retrying the same id: the duplicate-reply cache
                    # replays the commit if it lands, and the deadline
                    # bounds the wait otherwise.
                    if observer is not None:
                        observer.metrics.inc("resilience.tainted_aborts")
            else:
                # Silence: the attempt failed as far as this edge knows.
                fate_unknown = True
                for target in targets:
                    self.breakers[target].record_failure()
                if observer is not None:
                    observer.metrics.inc("resilience.attempt_timeouts")
            backoff = self.retry.backoff(attempt, self.rng)
            yield sim.timeout(min(backoff, max(give_up_at - sim.now, 0.0)))

        if verdict is not None:
            super()._on_reply(record, verdict)
            return
        if reason == "deadline exceeded" and observer is not None:
            observer.metrics.inc("resilience.deadline_exceeded")
        self._finish(record, reason)

    # -- routing -----------------------------------------------------------

    def _targets(self, record: _Pending) -> List[str]:
        if self.policy != "local":
            return [t for t in super()._targets(record) if self.breakers[t].allow()]
        # Local policy: reconnect when the home replica is down — a crash
        # (the connection breaks, per Section 4.1) or a tripped breaker
        # (the edge has given up on a gray-failing home).  Any replica
        # accepts updates under these techniques, so rotation is safe; the
        # reconnect is sticky.
        names = self.system.replica_names
        start = names.index(self.home) if self.home in names else 0
        for offset in range(len(names)):
            candidate = names[(start + offset) % len(names)]
            if self.system.replicas[candidate].crashed:
                continue
            if self.breakers[candidate].allow():
                self.home = candidate
                return [candidate]
        return []

    def _shortest_reopen(self) -> float:
        waits = [b.reopens_in() for b in self.breakers.values()]
        return min(waits) if waits else 0.0

    def _retryable(self, reason: str) -> bool:
        return any(reason.startswith(prefix) for prefix in _ROUTING_PREFIXES)

    # -- responses ---------------------------------------------------------

    def _on_reply(self, record: _Pending, reply: Dict[str, Any]) -> None:
        """Wake the retry loop; it decides whether the reply settles."""
        waiter = record.reply
        if waiter is not None and not waiter.done:
            waiter.set_result(reply)
