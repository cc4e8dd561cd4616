"""The linter's single data file: every project-specific constant.

Rules read their policy from here so that adjusting the architecture —
adding a package, moving one between layers, widening the deterministic
core — is a one-file change reviewed next to the DAG it alters, never a
code change inside a rule.
"""

from __future__ import annotations

from typing import Any, Dict

# ---------------------------------------------------------------------------
# Layering (rules L201/L202)
# ---------------------------------------------------------------------------
# The import DAG of ``repro``'s first-level packages, exactly as drawn in
# docs/internals.md:
#
#     errors -> sim -> net -> failures -> {groupcomm, db} -> core
#            -> {analysis, workload, viz}
#
# with the observability layer slotted between ``net`` and ``core``:
# ``obs`` may depend on ``sim``/``net``; ``core`` (and the entry points
# above it) may depend on ``obs``; the layers *below* ``core`` hold only
# duck-typed, optional observer references — never the import.
#
# ``ALLOWED_DEPS[p]`` lists every package that modules inside ``p`` may
# import from.  A package never appears in its own entry (intra-package
# imports are always legal), and ``lint`` is deliberately standalone so the
# tooling can never deadlock on the code it checks.

ALLOWED_DEPS = {
    "errors": frozenset(),
    "sim": frozenset({"errors"}),
    "net": frozenset({"errors", "sim"}),
    "obs": frozenset({"errors", "sim", "net"}),
    "failures": frozenset({"errors", "sim", "net"}),
    "groupcomm": frozenset({"errors", "sim", "net", "failures"}),
    "db": frozenset({"errors", "sim", "net", "failures"}),
    "core": frozenset(
        {"errors", "sim", "net", "obs", "failures", "groupcomm", "db"}
    ),
    "analysis": frozenset(
        {"errors", "sim", "net", "failures", "groupcomm", "db", "core"}
    ),
    "resilience": frozenset(
        {"errors", "sim", "net", "obs", "failures", "groupcomm", "db", "core",
         "analysis"}
    ),
    "workload": frozenset(
        {"errors", "sim", "net", "failures", "groupcomm", "db", "core", "analysis"}
    ),
    "profiling": frozenset(
        {"errors", "sim", "net", "obs", "failures", "groupcomm", "db", "core",
         "analysis", "workload"}
    ),
    "viz": frozenset(
        {"errors", "sim", "net", "failures", "groupcomm", "db", "core", "analysis"}
    ),
    "lint": frozenset(),
}

# Top-level modules of the ``repro`` package itself (``__init__``,
# ``__main__``) re-export everything; they sit above the DAG.
TOP_LEVEL_MAY_IMPORT_ANYTHING = True

# ---------------------------------------------------------------------------
# Determinism (rules D101-D106)
# ---------------------------------------------------------------------------
# Packages whose code must be bit-for-bit reproducible given a seed.  The
# analysis/workload/viz layers consume traces after the fact and are
# exempt (they still must not perturb a run, but they hold no simulated
# state).
DETERMINISTIC_PACKAGES = frozenset(
    {"core", "groupcomm", "db", "net", "failures", "sim", "obs", "resilience",
     "profiling"}
)

# Module-granular widening of the scope above, by full dotted name.  The
# open-loop engine lives in the otherwise-exempt ``workload`` layer but
# holds simulated state (arrival schedules, in-flight records) and feeds
# the simulator's event queue, so it must obey the same rules as the
# deterministic core.  The sweep runner next to it stays exempt: it
# orchestrates OS processes around *finished* runs.
DETERMINISTIC_MODULES = frozenset({"repro.workload.openloop"})

# ``random.<fn>()`` calls share the interpreter-global Mersenne state; any
# one of them desynchronises every seeded run.  Constructing a seeded
# ``random.Random`` is the sanctioned alternative, so the class name is
# exempt.
RANDOM_MODULE = "random"
RANDOM_ALLOWED_ATTRS = frozenset({"Random", "SystemRandom"})

# Wall-clock and entropy sources.  Keys are ``module`` names as imported,
# values the forbidden attributes (``"*"`` = everything in the module).
NONDETERMINISTIC_CALLS = {
    "time": frozenset({"time", "time_ns", "monotonic", "monotonic_ns",
                       "perf_counter", "perf_counter_ns"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
    "secrets": frozenset({"*"}),
}

# Builtins that consume an iterable without depending on its order; a set
# flowing into one of these is harmless.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset"}
)

# ---------------------------------------------------------------------------
# Protocol contracts (rules P301-P304)
# ---------------------------------------------------------------------------
# The five generic phases of the paper's functional model (Figure 1).
PHASES = ("RE", "SC", "EX", "AC", "END")

# Class whose subclasses constitute replication techniques, and the class
# attribute carrying their classification row.
PROTOCOL_BASE = "ReplicaProtocol"
PROTOCOL_INFO_NAME = "info"
PROTOCOL_INFO_TYPE = "ProtocolInfo"

# Methods of the shared base whose bodies emit phases on behalf of every
# subclass: the dispatcher records RE before calling ``handle_request``,
# and ``respond`` records END before answering the client.
BASE_EMITS = frozenset({"RE"})
RESPOND_EMITS = "END"

# ---------------------------------------------------------------------------
# Message flow (rules M401-M404)
# ---------------------------------------------------------------------------
# Point-to-point send methods and the positional index of their
# message-type argument.  ``Node.send/send_many/call`` and
# ``ReliableTransport.send/send_to_group`` share one string namespace:
# transport inner types travel inside node-level ``rt.data`` envelopes but
# never collide with node types by convention, so the flow graph keeps a
# single table for both.
SEND_METHODS = {
    "send": 1,
    "send_many": 1,
    "send_to_group": 1,
    "call": 1,
}

# ``Node.call`` bookkeeping kwargs that are not payload keys.
CALL_CONTROL_KWARGS = frozenset({"timeout"})

# A ``.send`` carrying one of these kwargs is the raw ``Network.send``
# (src/dst routing layer), not a protocol message construction site —
# unless its payload is a dict literal (``payload={"k": ...}``), which the
# client edge uses to put a deadline on the envelope.  A receiver literally
# named ``network`` is always the routing layer.
NETWORK_SEND_KWARGS = frozenset({"payload", "reply_to"})
NETWORK_RECEIVER_NAMES = frozenset({"network"})

# Catalog name for the reserved reply envelope (``Node.reply`` sends it;
# the call-correlation machinery in ``Node._dispatch`` consumes it, so it
# has no ``.on`` registration by design).
REPLY_TYPE_NAME = "$reply"

# Receiver-name fragments that attribute a send/registration to the
# reliable-transport layer in the generated catalog (display only; the
# flow analysis itself is layer-agnostic).
TRANSPORT_RECEIVER_HINT = "transport"

# Group-communication primitives: constructor shape of every class whose
# instances fan messages out to a ``deliver(origin, mtype, body)``-style
# callback.  ``send`` is the broadcast method name, ``deliver`` the
# positional indices (after ``self``) of the delivery callbacks in the
# constructor, ``deliver_kwargs`` their keyword spellings, and
# ``channel_param`` the constructor parameter naming the wire channel
# (``None`` = fixed wire type).
PRIMITIVE_SPECS: Dict[str, Dict[str, Any]] = {
    "ReliableBroadcast": {
        "send": "broadcast", "deliver": (3,), "deliver_kwargs": ("deliver",),
        "channel_param": "channel", "channel_is_prefix": False,
    },
    "FifoBroadcast": {
        "send": "broadcast", "deliver": (3,), "deliver_kwargs": ("deliver",),
        "channel_param": "channel", "channel_is_prefix": False,
    },
    "CausalBroadcast": {
        "send": "broadcast", "deliver": (3,), "deliver_kwargs": ("deliver",),
        "channel_param": "channel", "channel_is_prefix": False,
    },
    "SequencerAtomicBroadcast": {
        "send": "abcast", "deliver": (3,), "deliver_kwargs": ("deliver",),
        "channel_param": "channel_prefix", "channel_is_prefix": True,
    },
    "ConsensusAtomicBroadcast": {
        "send": "abcast", "deliver": (4,), "deliver_kwargs": ("deliver",),
        "channel_param": "channel_prefix", "channel_is_prefix": True,
    },
    "OptimisticAtomicBroadcast": {
        "send": "abcast", "deliver": (4, 5),
        "deliver_kwargs": ("opt_deliver", "final_deliver"),
        "channel_param": "channel_prefix", "channel_is_prefix": True,
    },
    "ViewSyncGroup": {
        "send": "vscast", "deliver": (4,), "deliver_kwargs": ("deliver",),
        "channel_param": None, "channel_is_prefix": False,
    },
}

BROADCAST_METHODS = frozenset(
    spec["send"] for spec in PRIMITIVE_SPECS.values()
)

# ---------------------------------------------------------------------------
# Wait graph (rules W501-W504)
# ---------------------------------------------------------------------------
# Receiver names (last dotted segment) that denote a 2PL lock manager, so
# ``self.tm.locks.acquire(txn, item, mode, ...)`` is recognised wherever
# the manager is reached from.
LOCK_RECEIVER_NAMES = frozenset({"locks", "lock_manager"})
LOCK_ACQUIRE_METHOD = "acquire"

# ``txn.read/write`` route through ``Transaction.read/write``, which
# always forward the manager-level ``lock_timeout`` to the lock manager,
# so these sites count as *timed* lock acquisitions of the given mode.
TXN_RECEIVER_NAMES = frozenset({"txn"})
TXN_LOCK_METHODS = {"read": "r", "write": "w"}

# Classes whose ``.run(...)`` drives an internally-timed blocking
# sub-protocol (2PC votes carry the constructor's ``vote_timeout``); a
# ``yield self.<attr>.run(...)`` where ``self.<attr>`` is constructed
# from one of these counts as a timed wait and links the caller's
# closure into the class's ``run`` method.
COORDINATOR_CLASSES = frozenset({"TwoPhaseCoordinator"})
COORDINATOR_RUN_METHOD = "run"

# ``sim.all_of``/``any_of`` join futures produced by the call/lock sites
# inside their arguments; the join itself is recorded for the artifact
# but carries no timeout of its own.
JOIN_METHODS = frozenset({"all_of", "any_of"})

# Widening caps for the path-sensitive lock-order expansion: a function
# whose branch product exceeds MAX_WAIT_PATHS collapses to one
# linearised path; closure inlining stops at MAX_WAIT_DEPTH.
MAX_WAIT_PATHS = 32
MAX_WAIT_DEPTH = 12

# ---------------------------------------------------------------------------
# Interference (rules R601-R604)
# ---------------------------------------------------------------------------
# Replica-state accesses are dotted ``self.…`` attribute chains truncated
# to this many segments (``self.replica.node.name`` records as
# ``replica.node``): deeper chains describe a neighbour object's internals,
# not this instance's interleaving surface.
ACCESS_DEPTH = 2

# Container methods whose call mutates the receiver in place.  A call of
# one of these on a ``self.…`` chain counts as a write to that attribute
# in the read/write-set catalog (but not as a *rebinding* write, which is
# what the R603 lost-update check keys on).
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "setdefault", "update",
})

# Attribute-name fragments that mark a *guard predicate*: replica-role /
# configuration state whose validity a blocking wait can invalidate
# (deposed primary, changed view, advanced epoch).  An ``if`` test
# reading a ``self.…`` chain whose final segment contains one of these
# is a guard check for R602.
GUARD_ATTR_MARKERS = ("primary", "view", "epoch", "leader")

# Irreversible actions for R602: once one of these runs on a stale
# guard, the damage is externally visible.  ``respond``/``reply`` answer
# the client or a peer; ``commit`` publishes transaction effects.  The
# 2PC voting round (a TWO_PC wait site) is both an effect — starting an
# agreement round asserts the guard — and a fence: its participant-side
# PREPARE fencing revalidates, so windows do not extend across it.
EFFECT_METHODS = frozenset({"respond", "reply", "commit"})

# Dict-style methods whose call mutates a received message/payload in
# place (R604: handlers share payload dicts with the network layer and
# other recipients under copy-on-write broadcast, so in-place mutation
# aliases back into them).
MESSAGE_MUTATORS = frozenset({"clear", "pop", "popitem", "setdefault", "update"})

# ---------------------------------------------------------------------------
# Rule metadata (SARIF helpUri)
# ---------------------------------------------------------------------------
# Per-family anchors into docs/linting.md; every registered rule derives
# its SARIF ``helpUri`` from its id prefix so CI annotations link to the
# rule's documentation section.
FAMILY_HELP_URIS = {
    "D": "docs/linting.md#determinism-d1xx",
    "L": "docs/linting.md#layering-l2xx",
    "P": "docs/linting.md#protocol-contract-p3xx",
    "M": "docs/linting.md#message-flow-m4xx",
    "W": "docs/linting.md#wait-graph-w5xx",
    "R": "docs/linting.md#interference-r6xx",
}
DEFAULT_HELP_URI = "docs/linting.md"

# Lint-family codes accepted by the CLI ``--only-family`` filter, mapped
# to the rule-id prefixes they select.
FAMILY_PREFIXES = {
    "D1": "D1", "L2": "L2", "P3": "P3", "M4": "M4", "W5": "W5", "R6": "R6",
}

# ---------------------------------------------------------------------------
# Suppression
# ---------------------------------------------------------------------------
NOQA_MARKER = "repro: noqa"
DEFAULT_BASELINE = "lint-baseline.txt"
