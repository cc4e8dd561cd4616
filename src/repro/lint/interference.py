"""Whole-program interference analysis (R6xx) and the generated catalog.

The paper's replication techniques interleave at *blocking points*: a
handler that yields on a ``node.call``, a lock acquisition, a 2PC vote
or a future join suspends mid-flight, and every other dispatchable
handler on the same replica may run before it resumes.  The W5xx pass
(:mod:`.waitgraph`) proves those suspensions deadlock-free; this pass
asks the complementary question — **what state can change while a
handler is suspended, and does the code notice?**

For every dispatchable entry point (a registered message handler, a
broadcast deliver callback, or a technique's ``handle_request``) the
pass computes replica-state **read and write sets** — ``self.*``
attribute chains truncated to ``ACCESS_DEPTH`` and attributed to the
owning class family — over the entry's whole call closure, reusing the
event templates the wait-graph extractor already records.  Each wait
site then opens an **atomicity window**; four rules read the windows:

* **R601** — stale-read window: a local variable snapshots a ``self``
  attribute before a blocking wait and is still used after resumption,
  while a concurrently-dispatchable handler writes that attribute.
* **R602** — missing guard revalidation: a view/epoch/primary predicate
  is checked before a blocking wait but not re-checked before the next
  externally-visible effect (a reply, a commit, a 2PC round).  The
  primary-fencing pattern — re-checking ``is_primary`` after lock
  acquisition, before the voting round — is the positive shape.
* **R603** — conflicting unsynchronized writes: two dispatchable
  handlers rebind the same attribute with no common lock, and at least
  one write lands after a blocking wait (a lost-update window).
* **R604** — payload mutation: a handler mutates the message or body it
  received.  Payload dicts are aliased across recipients by the
  copy-on-write broadcast path, so the mutation leaks into every other
  recipient's view.

:func:`build_interference_artifact` emits the read/write-set catalog
(``docs/interference.md`` + JSON); the per-class write sets double as
the static reference the dynamic cross-validation test checks recorded
traffic against (observed writes must be a subset of the static sets).

Everything widens in the same spirit as :mod:`.symeval`: accesses the
extractor cannot root at ``self`` are dropped from the sets (they can
only silence the window rules, never fabricate findings), and branch
structure linearises beyond the W5xx path caps.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .config import (
    MAX_WAIT_DEPTH,
    MAX_WAIT_PATHS,
    MESSAGE_MUTATORS,
    PROTOCOL_BASE,
)
from .diagnostics import Diagnostic
from .registry import rule
from .symeval import ClassInfo, render_pattern
from .waitgraph import (
    LOCK,
    TWO_PC,
    FuncInfo,
    WaitGraph,
    WaitSite,
    _chain_str,
    _concrete,
    _finding,
    _handler_regs,
    _location,
    _method_key,
    _protocol_techniques,
    _self_chain,
    build_waitgraph,
)

__all__ = [
    "build_interference_artifact",
    "render_interference_json",
    "render_interference_markdown",
]

# The virtual entry every technique serves: ``_on_client_request`` is
# registered on the base class, so subclass ``handle_request`` bodies
# must join the dispatchable set explicitly.
REQUEST_ENTRY = "handle_request"


# ---------------------------------------------------------------------------
# Dispatchable entries
# ---------------------------------------------------------------------------

@dataclass
class Entry:
    """One entry point the runtime can dispatch concurrently with any
    other entry on the same replica."""

    label: str
    key: str                 # func key in the wait graph
    trigger: str             # message type(s) / deliver primitive / request
    file: str
    node: ast.AST            # registration (or def) node, for locations
    payload: Optional[str]   # received-payload parameter name (R604)


def _params(node: Optional[ast.AST]) -> List[str]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    names = [a.arg for a in args.args]
    if names and names[0] == "self":
        names = names[1:]
    return names


def _entries(graph: WaitGraph) -> List[Entry]:
    """Every dispatchable entry point, deduplicated and sorted."""
    assert graph.message_graph is not None and graph.index is not None
    by_id = {id(info.node): key for key, info in graph.funcs.items()}
    out: List[Entry] = []
    seen: Set[Tuple[str, str]] = set()

    def add(label: str, key: str, trigger: str, file: str,
            node: ast.AST, payload: Optional[str]) -> None:
        marker = (key, trigger)
        if marker not in seen:
            seen.add(marker)
            out.append(Entry(label, key, trigger, file, node, payload))

    for reg, key in _handler_regs(graph):
        params = _params(reg.callback.node)
        trigger = ", ".join(sorted(render_pattern(p) for p in reg.patterns))
        add(reg.callback.label, key, trigger, reg.file, reg.node,
            params[-1] if params else None)

    for owner_attr in sorted(graph.message_graph.bindings):
        for binding in graph.message_graph.bindings[owner_attr]:
            for callback in binding.callbacks:
                key = by_id.get(id(callback.node))
                if key is None:
                    continue
                params = _params(callback.node)
                # Group deliver signature: (origin, mtype, body).
                add(callback.label, key, f"deliver:{binding.primitive}",
                    binding.file, binding.node,
                    params[2] if len(params) > 2 else None)

    for _technique, cls in _protocol_techniques(graph):
        for owner in graph.index.mro(cls):
            if owner.name == PROTOCOL_BASE:
                continue
            method = owner.methods.get(REQUEST_ENTRY)
            if method is None:
                continue
            key = _method_key(owner, method)
            info = graph.funcs.get(key)
            if info is not None:
                params = _params(method)
                add(f"{owner.name}.{method.name}", key, "client.request",
                    info.file, method, params[-1] if params else None)
            break

    out.sort(key=lambda e: (e.label, e.key, e.trigger))
    return out


def _technique_entries(
    graph: WaitGraph,
) -> List[Tuple[str, ClassInfo, List[Entry], Set[str]]]:
    """Per technique: its dispatchable entries and closure key set."""
    assert graph.index is not None
    all_entries = _entries(graph)
    out: List[Tuple[str, ClassInfo, List[Entry], Set[str]]] = []
    for technique, cls in _protocol_techniques(graph):
        mro_names = {info.name for info in graph.index.mro(cls)}
        own = sorted(
            key for key, info in graph.funcs.items()
            if info.cls is not None and info.cls.name in mro_names
        )
        seen: Set[str] = set()
        for key in own:
            for info in graph.closure(key):
                seen.add(info.key)
        entries = [e for e in all_entries if e.key in seen]
        out.append((technique, cls, entries, seen))
    return out


def _family(graph: WaitGraph, cls: Optional[ClassInfo]) -> str:
    """The root of a class's known MRO: two methods touch the same
    instance state only when their classes share this root."""
    if cls is None or graph.index is None:
        return ""
    mro = graph.index.mro(cls)
    return mro[-1].name if mro else cls.name


def _qualified(family: str, name: str) -> str:
    return f"{family}.{name}" if family else name


# ---------------------------------------------------------------------------
# Event-path expansion (reads/writes/guards/effects, callees inlined)
# ---------------------------------------------------------------------------

# (kind, payload, func_key) — the extractor's template events stamped
# with the function they occurred in, so accesses can be attributed to
# the right class family after inlining.
XEvent = Tuple[str, Any, str]

_EVENT_CACHE: List[Tuple[WaitGraph, Dict[str, Optional[List[List[XEvent]]]]]] = []


def _expand_events(graph: WaitGraph, key: str,
                   depth: int = 0) -> List[List[XEvent]]:
    """Full event sequences through ``key`` with callees inlined.

    The wait-graph expansion keeps only wait sites; this one keeps every
    event kind, under the same memoisation, depth and path caps.
    """
    if not _EVENT_CACHE or _EVENT_CACHE[0][0] is not graph:
        _EVENT_CACHE[:] = [(graph, {})]
    cache = _EVENT_CACHE[0][1]
    if key in cache:
        cached = cache[key]
        return cached if cached is not None else [[]]
    if depth > MAX_WAIT_DEPTH:
        return [[]]
    info = graph.funcs.get(key)
    if info is None:
        return [[]]
    cache[key] = None  # in progress: recursion expands to nothing
    out: List[List[XEvent]] = []
    for template in info.templates or [[]]:
        paths: List[List[XEvent]] = [[]]
        for event in template:
            kind = event[0]
            if kind == "callee":
                sub = _expand_events(graph, event[1], depth + 1)
                if len(paths) * len(sub) > MAX_WAIT_PATHS:
                    flat = [e for sub_path in sub for e in sub_path]
                    paths = [p + flat for p in paths]
                else:
                    paths = [p + sp for p in paths for sp in sub]
            elif kind == "stop":
                continue
            else:
                stamped: XEvent = (kind, event[1], key)
                paths = [p + [stamped] for p in paths]
        out.extend(paths)
        if len(out) > MAX_WAIT_PATHS:
            merged: List[XEvent] = []
            marked: Set[Tuple[str, int]] = set()
            for path in out:
                for stamped in path:
                    marker = (stamped[0], id(stamped[1]))
                    if marker not in marked:
                        marked.add(marker)
                        merged.append(stamped)
            out = [merged]
    cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Read/write sets
# ---------------------------------------------------------------------------

def _func_accesses(
    graph: WaitGraph, info: FuncInfo
) -> Tuple[Set[Tuple[str, str]], Set[Tuple[str, str, str]]]:
    """One function's (reads, writes), attributed to its class family."""
    family = _family(graph, info.cls)
    reads: Set[Tuple[str, str]] = set()
    writes: Set[Tuple[str, str, str]] = set()
    for template in info.templates:
        for event in template:
            if event[0] == "read":
                reads.add((family, event[1][0]))
            elif event[0] == "write":
                name, _node, via = event[1]
                writes.add((family, name, via))
    return reads, writes


def _closure_sets(
    graph: WaitGraph, key: str
) -> Tuple[Set[Tuple[str, str]], Set[Tuple[str, str, str]]]:
    """An entry's read/write sets over its whole call closure."""
    reads: Set[Tuple[str, str]] = set()
    writes: Set[Tuple[str, str, str]] = set()
    for info in graph.closure(key):
        func_reads, func_writes = _func_accesses(graph, info)
        reads |= func_reads
        writes |= func_writes
    return reads, writes


def _write_map(graph: WaitGraph,
               entries: Sequence[Entry]) -> Dict[Tuple[str, str], Set[str]]:
    """(family, attr) -> labels of the entries whose closures write it."""
    out: Dict[Tuple[str, str], Set[str]] = {}
    for entry in entries:
        _reads, writes = _closure_sets(graph, entry.key)
        for family, name, _via in writes:
            out.setdefault((family, name), set()).add(entry.label)
    return out


# ---------------------------------------------------------------------------
# R601 — stale-read window
# ---------------------------------------------------------------------------

@rule("R601", "stale-read-window", scope="project")
def check_stale_reads(contexts) -> Iterator[Diagnostic]:
    """A pre-wait snapshot of replica state is used after resumption.

    ``value = self.attr`` before a blocking wait captures state that a
    concurrently-dispatchable handler may overwrite while this handler
    is suspended; using the captured value after the wait acts on stale
    state.  The rule fires only when some dispatchable entry of the same
    technique actually writes the attribute (immutable configuration
    never triggers it) and the local is not rebound between the snapshot
    and the stale use.  Re-read the attribute after the wait, or justify
    the capture with a ``# repro: noqa R601``.
    """
    graph = build_waitgraph(contexts)
    reported: Set[Tuple[str, str, int]] = set()
    for _technique, _cls, entries, _seen in _technique_entries(graph):
        wmap = _write_map(graph, entries)
        keys = sorted({
            info.key for entry in entries
            for info in graph.closure(entry.key)
        })
        for key in keys:
            info = graph.funcs[key]
            if not info.waits:
                continue
            family = _family(graph, info.cls)
            yield from _stale_in_func(info, family, wmap, reported)


def _stale_in_func(info: FuncInfo, family: str,
                   wmap: Dict[Tuple[str, str], Set[str]],
                   reported: Set[Tuple[str, str, int]],
                   ) -> Iterator[Diagnostic]:
    wait_nodes = {id(site.node) for site in info.waits}
    # Everything inside a wait expression is evaluated before the
    # suspension: argument uses on a continuation line of the call are
    # not post-wait uses, whatever their line number says.
    in_wait = {
        id(sub) for site in info.waits for sub in ast.walk(site.node)
    }
    wait_lines = sorted(site.node.lineno for site in info.waits)
    assigns: Dict[str, List[int]] = {}
    snapshots: List[Tuple[str, int, Set[str]]] = []
    uses: Dict[str, List[Tuple[int, ast.AST]]] = {}

    def visit(node: ast.AST) -> None:
        if node is not info.node and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            var = node.targets[0].id
            assigns.setdefault(var, []).append(node.lineno)
            attrs = {
                _chain_str(chain)
                for sub in ast.walk(node.value)
                if isinstance(sub, ast.Attribute)
                for chain in (_self_chain(sub),)
                if chain
            }
            # A wait inside the value means the target holds the wait's
            # result, not a state snapshot; a ``self.x.pop(...)`` value
            # *removes* the entry from the shared container, so no
            # concurrent dispatch can see or rewrite it afterwards
            # (ownership transfer, not a stale-prone copy).
            captures_wait = any(
                id(sub) in wait_nodes for sub in ast.walk(node.value)
            )
            takes_ownership = (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in ("pop", "popleft", "popitem")
                and _self_chain(node.value.func.value) is not None
            )
            if attrs and not captures_wait and not takes_ownership:
                snapshots.append((var, node.lineno, attrs))
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                if id(node) not in in_wait:
                    uses.setdefault(node.id, []).append((node.lineno, node))
            else:
                assigns.setdefault(node.id, []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(info.node)
    for var, snap_line, attrs in snapshots:
        writable = sorted(a for a in attrs if wmap.get((family, a)))
        if not writable:
            continue
        wait_after = next((w for w in wait_lines if w > snap_line), None)
        if wait_after is None:
            continue
        stale = [
            (line, node) for line, node in uses.get(var, ())
            if line > wait_after and not any(
                snap_line < a <= line
                for a in assigns.get(var, ()) if a != snap_line
            )
        ]
        if not stale:
            continue
        marker = (info.key, var, snap_line)
        if marker in reported:
            continue
        reported.add(marker)
        line, node = min(stale, key=lambda pair: pair[0])
        writers = sorted(set().union(
            *(wmap[(family, a)] for a in writable)
        ))
        attr_list = ", ".join(f"self.{a}" for a in writable)
        yield _finding(
            info.file, node,
            f"'{var}' snapshots {attr_list} at line {snap_line} and is "
            f"still used here, after the blocking wait at line "
            f"{wait_after}; {', '.join(writers)} may write it while this "
            f"handler is suspended — re-read the attribute after "
            f"resumption",
        )


# ---------------------------------------------------------------------------
# R602 — missing guard revalidation
# ---------------------------------------------------------------------------

@rule("R602", "missing-guard-revalidation", scope="project")
def check_guard_revalidation(contexts) -> Iterator[Diagnostic]:
    """A role guard checked before a wait is stale at the next effect.

    Checking ``self.is_primary`` (or a view/epoch/leader predicate)
    proves a role *at that instant*; every blocking wait that follows
    suspends the handler, and a failover or view change may run before
    it resumes.  If the next externally-visible effect — a reply, a
    commit, a 2PC voting round — happens without re-checking the guard,
    a deposed primary keeps acting on its old role: exactly the split-
    brain window primary-copy fencing exists to close.  Re-validate the
    predicate after the last wait before the effect (the fenced
    ``_execute`` shape), or justify with a ``# repro: noqa R602``.
    """
    graph = build_waitgraph(contexts)
    reported: Set[Tuple[str, str, int, str, int]] = set()
    for _technique, _cls, entries, _seen in _technique_entries(graph):
        for entry in entries:
            for path in _expand_events(graph, entry.key):
                yield from _scan_guard_path(graph, path, reported)


def _scan_guard_path(
    graph: WaitGraph,
    path: List[XEvent],
    reported: Set[Tuple[str, str, int, str, int]],
) -> Iterator[Diagnostic]:
    # name -> (guard node, guard file); the diagnostic lands on the
    # guard check — that is the caller's frame, so a suppression there
    # never silences other callers of a shared blocking helper.
    checked: Dict[str, Tuple[ast.AST, str]] = {}
    pending: Dict[str, Tuple[WaitSite, ast.AST, str]] = {}

    def report(name: str, what: str, effect_file: str,
               effect_line: int) -> Iterator[Diagnostic]:
        site, guard, guard_file = pending[name]
        marker = (name, guard_file, guard.lineno, effect_file, effect_line)
        if marker in reported:
            return
        reported.add(marker)
        yield _finding(
            guard_file, guard,
            f"guard 'self.{name}' checked here is not re-validated after "
            f"the blocking wait at {site.file}:{site.node.lineno} before "
            f"{what} at {effect_file}:{effect_line}; the predicate may "
            f"change while the handler is suspended — re-check it after "
            f"resumption",
        )

    for kind, payload, owner_key in path:
        owner = graph.funcs.get(owner_key)
        owner_file = owner.file if owner is not None else ""
        if kind == "guard":
            name, node = payload
            checked[name] = (node, owner_file)
            pending.pop(name, None)
        elif kind == "wait":
            site = payload
            if site.kind == TWO_PC:
                # The voting round both *is* an effect (PREPARE leaves
                # the replica) and a barrier: report stale guards, then
                # start a fresh epoch of checks.
                for name in sorted(pending):
                    yield from report(
                        name, f"the {site.detail} voting round",
                        site.file, site.node.lineno,
                    )
                pending.clear()
                checked.clear()
            else:
                for name in sorted(checked):
                    pending.setdefault(name, (site,) + checked[name])
        elif kind == "effect":
            label, node = payload
            for name in sorted(pending):
                yield from report(name, f"{label}()", owner_file,
                                  node.lineno)
            pending.clear()


# ---------------------------------------------------------------------------
# R603 — conflicting unsynchronized writes
# ---------------------------------------------------------------------------

@rule("R603", "conflicting-unsynchronized-writes", scope="project")
def check_conflicting_writes(contexts) -> Iterator[Diagnostic]:
    """Two handlers rebind the same attribute across an open window.

    An attribute rebound by two or more concurrently-dispatchable
    handlers with no common lock item is a race the cooperative
    scheduler only hides until a write lands *after* a blocking wait:
    then read-modify-write interleaves with a concurrent dispatch and
    one update is lost.  Container mutations stay out of scope (they
    merge rather than overwrite); writes protected by a shared concrete
    lock item on every path stay silent.
    """
    graph = build_waitgraph(contexts)
    reported: Set[Tuple[str, str, Tuple[str, ...]]] = set()
    for _technique, _cls, entries, _seen in _technique_entries(graph):
        writers = _rebind_map(graph, entries)
        for family, name in sorted(writers):
            records = writers[(family, name)]
            if len(records) < 2:
                continue
            windowed = [
                site for record in records.values()
                for site in record["windowed"]
            ]
            if not windowed:
                continue
            common: Optional[Set[str]] = None
            for record in records.values():
                locks = record["locks"] or set()
                common = set(locks) if common is None else common & locks
            if common:
                continue
            labels = tuple(sorted(records))
            marker = (family, name, labels)
            if marker in reported:
                continue
            reported.add(marker)
            windowed.sort(key=lambda pair: (pair[0], pair[1].lineno))
            file, node = windowed[0]
            yield _finding(
                file, node,
                f"'{name}' is rebound by {len(labels)} concurrently-"
                f"dispatchable handlers ({', '.join(labels)}) with no "
                f"common lock; this write follows a blocking wait, so a "
                f"concurrent dispatch during the window is overwritten "
                f"on resumption",
            )


def _rebind_map(
    graph: WaitGraph, entries: Sequence[Entry]
) -> Dict[Tuple[str, str], Dict[str, Dict[str, Any]]]:
    """(family, attr) -> entry label -> rebinding-write evidence."""
    writers: Dict[Tuple[str, str], Dict[str, Dict[str, Any]]] = {}
    for entry in entries:
        for path in _expand_events(graph, entry.key):
            held: Set[str] = set()
            waited = False
            for kind, payload, owner_key in path:
                if kind == "wait":
                    waited = True
                    if payload.kind == LOCK:
                        held |= {
                            p for p in payload.patterns if _concrete(p)
                        }
                elif kind == "write":
                    name, node, via = payload
                    if via != "=":
                        continue
                    owner = graph.funcs[owner_key]
                    family = _family(graph, owner.cls)
                    record = writers.setdefault((family, name), {}).setdefault(
                        entry.label,
                        {"windowed": [], "locks": None},
                    )
                    if waited:
                        record["windowed"].append((owner.file, node))
                    record["locks"] = (
                        set(held) if record["locks"] is None
                        else record["locks"] & held
                    )
    return writers


# ---------------------------------------------------------------------------
# R604 — payload mutation
# ---------------------------------------------------------------------------

@rule("R604", "payload-mutation", scope="project")
def check_payload_mutation(contexts) -> Iterator[Diagnostic]:
    """A handler mutates the message or body it received.

    Delivery does not copy: the broadcast path hands every recipient an
    alias of the same payload dict (copied on *send* only when the
    sender still holds a reference), and a reply echoes the envelope the
    handler was given.  Writing into the received message or body
    therefore leaks the mutation into other recipients' views and into
    any retransmission.  Copy first (``dict(body)``) — mutations after
    such a rebinding pass — or justify with a ``# repro: noqa R604``.
    """
    graph = build_waitgraph(contexts)
    seen: Set[Tuple[str, str]] = set()
    for entry in _entries(graph):
        if not entry.payload:
            continue
        marker = (entry.key, entry.payload)
        if marker in seen:
            continue
        seen.add(marker)
        info = graph.funcs.get(entry.key)
        if info is not None:
            yield from _payload_mutations(info, entry)


def _param_root(expr: ast.AST, param: str) -> bool:
    current = expr
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return isinstance(current, ast.Name) and current.id == param


def _payload_mutations(info: FuncInfo, entry: Entry) -> Iterator[Diagnostic]:
    param = entry.payload
    assert param is not None
    rebinds = [
        node.lineno for node in ast.walk(info.node)
        if isinstance(node, ast.Name) and node.id == param
        and isinstance(node.ctx, ast.Store)
    ]
    horizon = min(rebinds) if rebinds else None
    for node in ast.walk(info.node):
        if horizon is not None and getattr(node, "lineno", 0) >= horizon:
            continue  # the handler copied (rebound) the payload first
        how: Optional[str] = None
        if isinstance(node, (ast.Subscript, ast.Attribute)) \
                and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and _param_root(node.value, param):
            how = "item assignment" if isinstance(node, ast.Subscript) \
                else "attribute assignment"
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MESSAGE_MUTATORS \
                and _param_root(node.func.value, param):
            how = f"{node.func.attr}()"
        if how is not None:
            yield _finding(
                info.file, node,
                f"handler {entry.label} mutates its received payload "
                f"'{param}' via {how}; delivery aliases payloads across "
                f"recipients (copy-on-write broadcast), so the mutation "
                f"leaks into other replicas' views — copy before "
                f"mutating",
            )


# ---------------------------------------------------------------------------
# The generated interference catalog
# ---------------------------------------------------------------------------

INTERFERENCE_HEADER = (
    "<!-- Generated by `python -m repro docs` (make docs). "
    "Do not edit by hand. -->"
)


def build_interference_artifact(contexts: Sequence) -> Dict[str, Any]:
    """The read/write-set catalog as JSON-able data, fully sorted."""
    graph = build_waitgraph(contexts)
    assert graph.index is not None

    techniques: List[Dict[str, Any]] = []
    for technique, cls, entries, _seen in _technique_entries(graph):
        wmap = _write_map(graph, entries)
        handlers: List[Dict[str, Any]] = []
        for entry in entries:
            reads, writes = _closure_sets(graph, entry.key)
            windows: Dict[str, Dict[str, Any]] = {}
            for path in _expand_events(graph, entry.key):
                for position, (kind, payload, _key) in enumerate(path):
                    if kind != "wait":
                        continue
                    location = _location(payload.file, payload.node)
                    window = windows.setdefault(location, {
                        "at": location,
                        "kind": payload.kind,
                        "timed": payload.timed,
                        "exposed_reads": set(),
                        "writes_after": set(),
                    })
                    for before_kind, before_payload, before_key in \
                            path[:position]:
                        if before_kind != "read":
                            continue
                        family = _family(graph, graph.funcs[before_key].cls)
                        if wmap.get((family, before_payload[0])):
                            window["exposed_reads"].add(
                                _qualified(family, before_payload[0])
                            )
                    for after_kind, after_payload, after_key in \
                            path[position + 1:]:
                        if after_kind != "write":
                            continue
                        family = _family(graph, graph.funcs[after_key].cls)
                        window["writes_after"].add(
                            _qualified(family, after_payload[0])
                        )
            handlers.append({
                "handler": entry.label,
                "trigger": entry.trigger,
                "at": _location(entry.file, entry.node),
                "reads": sorted(
                    _qualified(f, n) for f, n in reads
                ),
                "writes": sorted({
                    _qualified(f, n) for f, n, _via in writes
                }),
                "windows": [
                    {
                        "at": window["at"],
                        "kind": window["kind"],
                        "timed": window["timed"],
                        "exposed_reads": sorted(window["exposed_reads"]),
                        "writes_after": sorted(window["writes_after"]),
                    }
                    for _loc, window in sorted(windows.items())
                ],
            })
        techniques.append({
            "technique": technique,
            "class": cls.name,
            "file": cls.path,
            "handlers": handlers,
        })

    # Per-class *direct* write sets (depth-1 ``self.attr = ...`` over the
    # whole MRO): the reference the dynamic cross-validation compares
    # observed ``__setattr__`` traffic against.
    classes: Dict[str, List[str]] = {}
    for _technique, cls in _protocol_techniques(graph):
        mro_names = {info.name for info in graph.index.mro(cls)}
        attrs: Set[str] = set()
        for key in sorted(graph.funcs):
            info = graph.funcs[key]
            if info.cls is None or info.cls.name not in mro_names:
                continue
            for template in info.templates:
                for event in template:
                    if event[0] == "write" and event[1][2] in ("=", "aug") \
                            and "." not in event[1][0]:
                        attrs.add(event[1][0])
        classes[cls.name] = sorted(attrs)

    handler_count = sum(len(t["handlers"]) for t in techniques)
    window_count = sum(
        len(h["windows"]) for t in techniques for h in t["handlers"]
    )
    return {
        "techniques": techniques,
        "classes": classes,
        "summary": {
            "handlers": handler_count,
            "windows": window_count,
            "write_attributes": len({
                attr for attrs in classes.values() for attr in attrs
            }),
        },
    }


def render_interference_json(artifact: Dict[str, Any]) -> str:
    return json.dumps(artifact, indent=2, sort_keys=True) + "\n"


def _set_cell(values: List[str]) -> str:
    return f"`{', '.join(values)}`" if values else "—"


def render_interference_markdown(artifact: Dict[str, Any]) -> str:
    summary = artifact["summary"]
    lines: List[str] = [
        "# Interference catalog",
        "",
        INTERFERENCE_HEADER,
        "",
        "Replica-state read/write sets and atomicity windows for every",
        "dispatchable handler, as resolved by the R6xx interference pass",
        "(`src/repro/lint/interference.py`).  Access names are `Family.attr`",
        "attribute chains truncated to two segments; a *window* is a",
        "blocking wait inside the handler's call closure, with the pre-wait",
        "reads that a concurrent dispatch can invalidate and the post-wait",
        "writes that land on possibly-changed state.",
        "",
        f"Handlers: {summary['handlers']}; windows: {summary['windows']}; "
        f"distinct written attributes: {summary['write_attributes']}.",
        "",
    ]
    for technique in artifact["techniques"]:
        lines += [
            f"## {technique['technique']} (`{technique['class']}`)",
            "",
            f"Defined in `{technique['file']}`.",
            "",
        ]
        if technique["handlers"]:
            lines += [
                "| handler | trigger | reads | writes |",
                "|---------|---------|-------|--------|",
            ]
            for handler in technique["handlers"]:
                lines.append(
                    f"| {handler['handler']} | `{handler['trigger']}` | "
                    f"{_set_cell(handler['reads'])} | "
                    f"{_set_cell(handler['writes'])} |"
                )
            lines.append("")
        window_rows = [
            (handler["handler"], window)
            for handler in technique["handlers"]
            for window in handler["windows"]
        ]
        if window_rows:
            lines += [
                "| handler | window at | kind | timed "
                "| exposed reads | writes after |",
                "|---------|-----------|------|-------"
                "|---------------|--------------|",
            ]
            for handler_label, window in window_rows:
                lines.append(
                    f"| {handler_label} | `{window['at']}` | "
                    f"{window['kind']} | "
                    f"{'yes' if window['timed'] else 'no'} | "
                    f"{_set_cell(window['exposed_reads'])} | "
                    f"{_set_cell(window['writes_after'])} |"
                )
            lines.append("")
        else:
            lines += ["No atomicity windows: these handlers never block.",
                      ""]
    lines += [
        "## Per-class write sets",
        "",
        "Direct `self.attr = ...` rebindings over each technique's whole",
        "MRO — the static reference observed `__setattr__` traffic must be",
        "a subset of (see `tests/test_interference.py`).",
        "",
        "| class | written attributes |",
        "|-------|--------------------|",
    ]
    for name in sorted(artifact["classes"]):
        lines.append(
            f"| `{name}` | {_set_cell(artifact['classes'][name])} |"
        )
    lines.append("")
    return "\n".join(lines)
