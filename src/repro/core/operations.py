"""Client operations and results.

Section 2.2 first considers "transactions composed of a single operation
... a single read or write operation, a more complex operation with
multiple parameters, or an invocation on a method" (stored procedures);
Section 5 generalises to multi-operation transactions.  Both shapes are
covered here:

* :class:`Operation` — one logical read/write/update.  ``update``
  operations apply a named function to the current value, which is how the
  simulation distinguishes *deterministic* state-machine commands (safe for
  active replication) from *non-deterministic* ones (the reason passive and
  semi-active replication exist).
* :class:`Request` — what a client submits: one or more operations plus an
  id, i.e. a transaction.
* :class:`Result` — what comes back: commit verdict, read values, timing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Operation", "Request", "Result", "INDETERMINATE_REASONS", "apply_update",
    "UPDATE_FUNCTIONS",
]

# Fallback id source for ad-hoc Request.make() calls (tests, examples).
# Simulation runs must pass an explicit ``sequence`` instead: a module
# counter carries state across runs in the same interpreter, so ids would
# depend on execution history rather than the seed.
_request_counter = itertools.count(1)  # repro: noqa D107


def _set(current: Any, argument: Any, rng: random.Random) -> Any:
    return argument


def _add(current: Any, argument: Any, rng: random.Random) -> Any:
    return (current or 0) + argument


def _append(current: Any, argument: Any, rng: random.Random) -> Any:
    return (list(current) if current else []) + [argument]


def _random_token(current: Any, argument: Any, rng: random.Random) -> Any:
    # Deliberately non-deterministic across replicas: each evaluation draws
    # from the *local* RNG.  Active replication would diverge on this;
    # passive/semi-active replication exist to handle exactly this case.
    return rng.randrange(10**9)


UPDATE_FUNCTIONS: Dict[str, Callable[[Any, Any, random.Random], Any]] = {
    "set": _set,
    "add": _add,
    "append": _append,
    "random_token": _random_token,
}

NON_DETERMINISTIC = {"random_token"}


def apply_update(func: str, current: Any, argument: Any, rng: random.Random) -> Any:
    """Apply the named update function; raises KeyError on unknown names."""
    return UPDATE_FUNCTIONS[func](current, argument, rng)


@dataclass(frozen=True)
class Operation:
    """One logical operation on a data item.

    ``kind`` is ``"read"``, ``"write"`` (blind write of ``argument``) or
    ``"update"`` (apply ``func`` to the current value with ``argument``).
    """

    kind: str
    item: str
    argument: Any = None
    func: str = "set"

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write", "update"):
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind == "update" and self.func not in UPDATE_FUNCTIONS:
            raise ValueError(f"unknown update function {self.func!r}")

    @property
    def is_write(self) -> bool:
        return self.kind != "read"

    @property
    def deterministic(self) -> bool:
        return self.kind != "update" or self.func not in NON_DETERMINISTIC

    @staticmethod
    def read(item: str) -> "Operation":
        return Operation("read", item)

    @staticmethod
    def write(item: str, value: Any) -> "Operation":
        return Operation("write", item, argument=value)

    @staticmethod
    def update(item: str, func: str, argument: Any = None) -> "Operation":
        return Operation("update", item, argument=argument, func=func)

    def as_wire(self) -> list:
        return [self.kind, self.item, self.argument, self.func]

    @staticmethod
    def from_wire(data: list) -> "Operation":
        return Operation(kind=data[0], item=data[1], argument=data[2], func=data[3])


@dataclass(frozen=True)
class Request:
    """A client-submitted transaction: an id plus its operations.

    ``idem_key`` is the request's idempotency key: two submissions that
    share it are *the same logical request*, and a server that already
    answered one must replay its cached reply instead of re-executing
    (see the duplicate-reply cache in :mod:`repro.core.system`).  It
    defaults to the request id, which is what a retrying client resends.
    """

    request_id: str
    operations: Tuple[Operation, ...]
    idem_key: Optional[str] = None

    @staticmethod
    def make(
        operations,
        client: str = "client",
        sequence: Optional[int] = None,
        idem_key: Optional[str] = None,
    ) -> "Request":
        """Build a request with id ``{client}-r{sequence}``.

        Callers owning a per-client counter (see ``core.system.Client``)
        should pass ``sequence`` so ids are deterministic per run; without
        it a process-global fallback counter is used.
        """
        if isinstance(operations, Operation):
            operations = (operations,)
        if sequence is None:
            sequence = next(_request_counter)
        return Request(
            request_id=f"{client}-r{sequence}",
            operations=tuple(operations),
            idem_key=idem_key,
        )

    @property
    def idempotency_key(self) -> str:
        """The effective dedup key (explicit ``idem_key`` or the id)."""
        return self.idem_key if self.idem_key is not None else self.request_id

    @property
    def read_only(self) -> bool:
        return all(not op.is_write for op in self.operations)

    @property
    def deterministic(self) -> bool:
        return all(op.deterministic for op in self.operations)

    def as_wire(self) -> dict:
        wire = {
            "request_id": self.request_id,
            "operations": [op.as_wire() for op in self.operations],
        }
        if self.idem_key is not None:
            wire["idem_key"] = self.idem_key
        return wire

    @staticmethod
    def from_wire(data: dict) -> "Request":
        return Request(
            request_id=data["request_id"],
            operations=tuple(Operation.from_wire(o) for o in data["operations"]),
            idem_key=data.get("idem_key"),
        )


# Client-side aborts whose server-side effect is unknown: the request may
# still commit after the client stopped waiting, so resubmitting it risks
# executing it twice.  Every other abort is definitive (no effect).
INDETERMINATE_REASONS = (
    "deadline exceeded", "retry budget exhausted", "client gave up",
)


@dataclass
class Result:
    """Outcome of a request as seen by the client."""

    request_id: str
    committed: bool
    values: List[Any] = field(default_factory=list)
    reason: str = ""
    submitted_at: float = 0.0
    completed_at: float = 0.0
    server: str = ""
    retries: int = 0
    operations: Tuple[Operation, ...] = ()

    @property
    def latency(self) -> float:
        return self.completed_at - self.submitted_at

    @property
    def value(self) -> Any:
        """The last read value (convenience for single-read requests)."""
        return self.values[-1] if self.values else None

    def __repr__(self) -> str:
        verdict = "committed" if self.committed else f"aborted({self.reason})"
        return f"<Result {self.request_id} {verdict} latency={self.latency:.2f}>"
