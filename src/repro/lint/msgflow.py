"""Whole-program message-flow analysis (M4xx) and the protocol catalog.

Every protocol in the tree is nodes exchanging string-typed ``Message``
envelopes: ``Node.send(dst, msg_type, **payload)`` dispatched to
``.on(msg_type, handler)`` callbacks that read ``msg["key"]``, with the
reliable-transport and group-communication layers stacking further
string-typed namespaces on top.  Nothing checks that surface at runtime
until a message is actually dropped or a handler raises ``KeyError``
deep inside a trace, so this pass checks it statically:

* every send site (``send``, ``send_many``, ``send_to_group``, ``call``,
  ``reply``) and handler registration (``.on`` / ``.on_default``) is
  resolved — through module/class constants, instance attributes and
  constructor parameters, via :mod:`.symeval` — into one send/handler
  graph;
* the group-communication primitives (``ReliableBroadcast`` and
  friends) are modelled as *bindings*: a constructor call couples a
  broadcast method to a deliver callback, giving each binding its own
  little type namespace of ``mtype`` strings;
* four rules read the graph: undeliverable message types (M401), dead
  handlers (M402), payload keys read but never sent (M403), and
  ``reply`` outside a ``call`` exchange (M404);
* :func:`build_catalog` emits the whole graph as the generated protocol
  message catalog (``docs/messages.md`` + JSON).

Everything resolves by over-approximation: an expression that cannot be
pinned down widens to a wildcard pattern, which silences — never
fabricates — findings.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .config import (
    BROADCAST_METHODS,
    CALL_CONTROL_KWARGS,
    NETWORK_RECEIVER_NAMES,
    NETWORK_SEND_KWARGS,
    PRIMITIVE_SPECS,
    REPLY_TYPE_NAME,
    SEND_METHODS,
    TRANSPORT_RECEIVER_HINT,
)
from .diagnostics import Diagnostic
from .registry import rule
from .symeval import (
    WILDCARD,
    ClassInfo,
    ProgramIndex,
    Scope,
    evaluate,
    pattern_matches,
    patterns_unify,
    program_index,
    render_pattern,
)

__all__ = [
    "MessageGraph",
    "build_graph",
    "build_catalog",
    "render_catalog_markdown",
    "render_catalog_json",
    "pattern_matches",
    "render_pattern",
]

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


# ---------------------------------------------------------------------------
# Graph records
# ---------------------------------------------------------------------------

@dataclass
class SendSite:
    """One point-to-point send: ``recv.send/send_many/call(dst, TYPE, **kw)``."""

    file: str
    node: ast.Call
    kind: str                  # "send" | "call"
    patterns: FrozenSet[str]   # resolved message-type patterns
    keys: Tuple[str, ...]      # payload kwarg names
    open: bool                 # a **splat makes the schema open
    layer: str                 # "node" | "transport" (catalog display)


@dataclass
class ReplySite:
    """One ``recv.reply(request, **kw)`` — the reserved reply envelope."""

    file: str
    node: ast.Call
    keys: Tuple[str, ...]
    open: bool
    func: Optional[FuncNode]   # enclosing function (for M404 correlation)


@dataclass
class CallbackInfo:
    """A resolved handler/deliver callback and what its body reads."""

    label: str
    node: Optional[FuncNode]          # None: factory call / unresolved name
    required: Dict[str, ast.AST] = field(default_factory=dict)
    optional: Set[str] = field(default_factory=set)
    accepted: Optional[FrozenSet[str]] = None   # guarded mtypes; None = all
    guard_node: Optional[ast.AST] = None


@dataclass
class HandlerReg:
    """One ``recv.on(TYPE, handler)`` / ``recv.on_default(handler)``."""

    file: str
    node: ast.Call
    patterns: FrozenSet[str]
    callback: CallbackInfo
    wildcard: bool             # on_default: catches every type
    layer: str


@dataclass
class BroadcastSend:
    """One ``self.attr.broadcast/abcast/vscast(MTYPE, **kw)`` call."""

    file: str
    node: ast.Call
    method: str
    owner: Optional[str]       # simple name of the enclosing class
    attr: Optional[str]        # binding attribute; None = class-level self-send
    patterns: FrozenSet[str]   # mtype patterns
    keys: Tuple[str, ...]
    open: bool


@dataclass
class Binding:
    """One construction of a group-communication primitive.

    ``self.attr = Primitive(..., deliver, ...)`` couples every broadcast
    through ``self.attr`` to ``deliver``; conditional constructions of
    the same attribute yield several Binding variants under one key.
    """

    file: str
    node: ast.Call
    primitive: str             # class name in PRIMITIVE_SPECS
    owner: str                 # simple name of the owning class
    attr: str
    scopes: FrozenSet[str]     # wire channel / prefix patterns (display)
    callbacks: List[CallbackInfo]


@dataclass
class MessageGraph:
    """The unified send/handler graph for one lint invocation."""

    sends: List[SendSite] = field(default_factory=list)
    replies: List[ReplySite] = field(default_factory=list)
    handlers: List[HandlerReg] = field(default_factory=list)
    broadcast_sends: List[BroadcastSend] = field(default_factory=list)
    bindings: Dict[Tuple[str, str], List[Binding]] = field(default_factory=dict)
    index: Optional[ProgramIndex] = None

    def sends_for_binding(self, owner: str, attr: str) -> List[BroadcastSend]:
        """Broadcasts through ``self.attr`` of ``owner`` (or a subclass),
        plus class-level self-sends of the bound primitive class."""
        assert self.index is not None
        out: List[BroadcastSend] = []
        for send in self.broadcast_sends:
            if send.attr == attr and send.owner is not None:
                sender = self.index.classes.get(send.owner)
                if sender is not None and any(
                    info.name == owner for info in self.index.mro(sender)
                ):
                    out.append(send)
        primitives = {v.primitive for v in self.bindings.get((owner, attr), [])}
        for send in self.broadcast_sends:
            if send.attr is None and send.owner in primitives and send not in out:
                out.append(send)
        return out


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def _receiver_name(func: ast.Attribute) -> Optional[str]:
    """Last dotted segment of the receiver (``self.node.send`` -> ``node``)."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _layer_of(receiver: Optional[str]) -> str:
    if receiver and TRANSPORT_RECEIVER_HINT in receiver:
        return "transport"
    return "node"


def _payload_kwargs(call: ast.Call, drop: FrozenSet[str]) -> Tuple[Tuple[str, ...], bool]:
    keys: List[str] = []
    is_open = False
    for keyword in call.keywords:
        if keyword.arg is None:
            is_open = True
        elif keyword.arg not in drop:
            keys.append(keyword.arg)
    return tuple(keys), is_open


def _literal_payload(call: ast.Call) -> Optional[Tuple[Tuple[str, ...], bool]]:
    """Keys of a ``payload={...}`` dict literal, or None if there is none."""
    for keyword in call.keywords:
        if keyword.arg == "payload" and isinstance(keyword.value, ast.Dict):
            keys = [k.value for k in keyword.value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)]
            return tuple(keys), len(keys) != len(keyword.value.keys)
    return None


def _callback_params(func: FuncNode, is_method: bool) -> List[str]:
    params = [a.arg for a in func.args.args]
    if is_method and params and params[0] == "self":
        params = params[1:]
    return params


def _collect_reads(func: FuncNode, param: str,
                   required: Dict[str, ast.AST], optional: Set[str]) -> None:
    """Record ``param["k"]`` / ``param.pop("k")`` (required) and
    ``param.get("k")`` / ``"k" in param`` (optional) in ``func``'s body."""
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            required.setdefault(node.slice.value, node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            if not (isinstance(target, ast.Name) and target.id == param):
                continue
            if not (node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            key = node.args[0].value
            if node.func.attr == "pop" and len(node.args) == 1:
                required.setdefault(key, node)
            elif node.func.attr in ("get", "pop"):
                optional.add(key)
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            if (
                isinstance(node.ops[0], (ast.In, ast.NotIn))
                and isinstance(node.comparators[0], ast.Name)
                and node.comparators[0].id == param
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
            ):
                optional.add(node.left.value)


def _mtype_guard(func: FuncNode, param: str) -> Tuple[Optional[FrozenSet[str]], Optional[ast.AST]]:
    """Accepted mtypes of a deliver callback, from its early-return guard.

    Recognises ``if mtype != "x": return`` and ``if mtype not in (...):
    return`` at any depth; anything else means the callback accepts all.
    """
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        if not (len(node.body) == 1 and isinstance(node.body[0], ast.Return)):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.left, ast.Name)
            and test.left.id == param
        ):
            continue
        comparator = test.comparators[0]
        if isinstance(test.ops[0], ast.NotEq):
            if isinstance(comparator, ast.Constant) and isinstance(comparator.value, str):
                return frozenset({comparator.value}), node
        elif isinstance(test.ops[0], ast.NotIn):
            if isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
                values = [
                    e.value for e in comparator.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
                if values and len(values) == len(comparator.elts):
                    return frozenset(values), node
    return None, None


def _resolve_callback(
    expr: ast.expr,
    cls: Optional[ClassInfo],
    index: ProgramIndex,
    message_param: Union[str, int] = "last",
) -> CallbackInfo:
    """Resolve a handler expression to its function and read sets.

    ``message_param`` picks which callback parameter carries the payload:
    ``"last"`` for node/transport handlers (``(message)`` and
    ``(src, payload)`` both end in it), or an integer index for the
    group-layer deliver signature ``(origin, mtype, body)``.
    """
    func: Optional[FuncNode] = None
    owner: Optional[ClassInfo] = None
    label = "<unresolved>"
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and cls is not None
    ):
        for info in index.mro(cls):
            method = info.methods.get(expr.attr)
            if method is not None:
                func, owner = method, info
                label = f"{info.name}.{expr.attr}"
                break
        else:
            label = f"{cls.name}.{expr.attr}"
    elif isinstance(expr, ast.Lambda):
        func, label = expr, "<lambda>"
    elif isinstance(expr, ast.Name):
        label = expr.id
    elif isinstance(expr, ast.Call):
        label = "<factory>"

    info = CallbackInfo(label=label, node=func)
    if func is None:
        return info
    params = _callback_params(func, is_method=owner is not None)
    if message_param == "last":
        payload_param = params[-1] if params else None
        mtype_param = None
    else:
        # Group-layer deliver signature: (origin, mtype, body[, ...]).
        mtype_param = params[1] if len(params) > 1 else None
        payload_param = params[2] if len(params) > 2 else None
    if payload_param is not None:
        _collect_reads(func, payload_param, info.required, info.optional)
    if message_param != "last" and mtype_param is not None:
        info.accepted, info.guard_node = _mtype_guard(func, mtype_param)
    return info


class _Extractor:
    """One walk over a file, tracking the enclosing class and function."""

    def __init__(self, ctx, index: ProgramIndex, graph: MessageGraph) -> None:
        self.ctx = ctx
        self.module = ctx.module or ctx.path
        self.index = index
        self.graph = graph

    def run(self) -> None:
        self._visit(self.ctx.tree, None, None)

    def _visit(self, node: ast.AST, cls: Optional[ClassInfo],
               func: Optional[FuncNode]) -> None:
        if isinstance(node, ast.ClassDef):
            cls, func = self.index.classes.get(node.name), None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func = node
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            self._call(node, cls, func)
        for child in ast.iter_child_nodes(node):
            self._visit(child, cls, func)

    def _scope(self, cls: Optional[ClassInfo], func: Optional[FuncNode]) -> Scope:
        scoped = func if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        return Scope(self.index, self.module, cls, scoped)

    def _call(self, call: ast.Call, cls: Optional[ClassInfo],
              func: Optional[FuncNode]) -> None:
        attr = call.func.attr
        receiver = _receiver_name(call.func)
        if attr in SEND_METHODS:
            self._send(call, cls, func, attr, receiver)
        elif attr == "reply" and call.args:
            keys, is_open = _payload_kwargs(call, frozenset())
            self.graph.replies.append(
                ReplySite(self.ctx.path, call, keys, is_open, func)
            )
        elif attr == "on" and len(call.args) == 2:
            patterns = evaluate(call.args[0], self._scope(cls, func))
            callback = _resolve_callback(call.args[1], cls, self.index)
            self.graph.handlers.append(HandlerReg(
                self.ctx.path, call, patterns, callback,
                wildcard=False, layer=_layer_of(receiver),
            ))
        elif attr == "on_default" and len(call.args) == 1:
            callback = _resolve_callback(call.args[0], cls, self.index)
            self.graph.handlers.append(HandlerReg(
                self.ctx.path, call, frozenset({WILDCARD}), callback,
                wildcard=True, layer=_layer_of(receiver),
            ))
        elif attr in BROADCAST_METHODS and call.args:
            self._broadcast(call, cls, func, attr)

    def _send(self, call: ast.Call, cls: Optional[ClassInfo],
              func: Optional[FuncNode], attr: str, receiver: Optional[str]) -> None:
        type_index = SEND_METHODS[attr]
        if len(call.args) <= type_index:
            return  # e.g. generator.send(value)
        if receiver in NETWORK_RECEIVER_NAMES:
            return  # raw Network.send: the routing layer under Node
        kwarg_names = {k.arg for k in call.keywords if k.arg}
        if attr == "send" and kwarg_names & NETWORK_SEND_KWARGS:
            # Raw Network.send(src, dst, MTYPE, payload={...}) above the
            # routing layer (the client edge stamping a deadline on the
            # envelope) constructs a message; anything else is the
            # Node/Network boundary, not a protocol send.
            literal = _literal_payload(call)
            if literal is None or len(call.args) <= 2:
                return
            type_index = 2
            keys, is_open = literal
        else:
            drop = CALL_CONTROL_KWARGS if attr == "call" else frozenset()
            keys, is_open = _payload_kwargs(call, drop)
        patterns = evaluate(call.args[type_index], self._scope(cls, func))
        self.graph.sends.append(SendSite(
            self.ctx.path, call,
            kind="call" if attr == "call" else "send",
            patterns=patterns, keys=keys, open=is_open,
            layer=_layer_of(receiver),
        ))

    def _broadcast(self, call: ast.Call, cls: Optional[ClassInfo],
                   func: Optional[FuncNode], method: str) -> None:
        target = call.func.value
        owner: Optional[str] = None
        attr: Optional[str] = None
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and cls is not None
        ):
            owner, attr = cls.name, target.attr
        elif isinstance(target, ast.Name) and target.id == "self" and cls is not None:
            # A primitive's own re-send (e.g. ViewSyncGroup._install
            # re-issuing queued vscasts): attaches to every binding.
            spec = PRIMITIVE_SPECS.get(cls.name)
            if spec is None or spec["send"] != method:
                return
            owner, attr = cls.name, None
        else:
            return  # local-variable receiver: wire traffic still covered
        keys, is_open = _payload_kwargs(call, frozenset())
        patterns = evaluate(call.args[0], self._scope(cls, func))
        self.graph.broadcast_sends.append(BroadcastSend(
            self.ctx.path, call, method, owner, attr, patterns, keys, is_open,
        ))


def _collect_bindings(index: ProgramIndex, graph: MessageGraph) -> None:
    for info in index.classes.values():
        for attr, assignments in info.attr_exprs.items():
            for value, method in assignments:
                if not isinstance(value, ast.Call):
                    continue
                name = _simple_name(value.func)
                spec = PRIMITIVE_SPECS.get(name or "")
                if spec is None or name is None:
                    continue
                scope = Scope(index, info.module, info, method)
                binding = Binding(
                    file=info.path, node=value, primitive=name,
                    owner=info.name, attr=attr,
                    scopes=_binding_scopes(value, name, spec, scope, index),
                    callbacks=_binding_callbacks(value, spec, info, index),
                )
                graph.bindings.setdefault((info.name, attr), []).append(binding)


def _simple_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _binding_scopes(call: ast.Call, primitive: str, spec: dict,
                    scope: Scope, index: ProgramIndex) -> FrozenSet[str]:
    param = spec["channel_param"]
    if param is None:
        return frozenset({WILDCARD})
    values: Optional[FrozenSet[str]] = None
    for keyword in call.keywords:
        if keyword.arg == param:
            values = evaluate(keyword.value, scope)
            break
    if values is None:
        info = index.classes.get(primitive)
        if info is not None:
            values = index.param_values(info, param)
    if values is None:
        values = frozenset({WILDCARD})
    if spec["channel_is_prefix"]:
        values = frozenset(v + "." + WILDCARD for v in values)
    return values


def _binding_callbacks(call: ast.Call, spec: dict, owner: ClassInfo,
                       index: ProgramIndex) -> List[CallbackInfo]:
    callbacks: List[CallbackInfo] = []
    for position, kwarg in zip(spec["deliver"], spec["deliver_kwargs"]):
        expr: Optional[ast.expr] = None
        if len(call.args) > position:
            expr = call.args[position]
        else:
            for keyword in call.keywords:
                if keyword.arg == kwarg:
                    expr = keyword.value
                    break
        if expr is None:
            continue
        callbacks.append(_resolve_callback(expr, owner, index, message_param=2))
    return callbacks


# ---------------------------------------------------------------------------
# Graph construction (cached per lint invocation)
# ---------------------------------------------------------------------------

_CACHE: List[Tuple[Any, MessageGraph]] = []


def build_graph(contexts: Sequence) -> MessageGraph:
    """Build (or reuse) the message graph for this set of file contexts.

    The four M4xx rules run against one invocation's context list, so a
    single-slot identity cache makes the whole family one pass.
    """
    if _CACHE and _CACHE[0][0] is contexts:
        return _CACHE[0][1]
    index = program_index(contexts)
    graph = MessageGraph(index=index)
    for ctx in contexts:
        _Extractor(ctx, index, graph).run()
    _collect_bindings(index, graph)
    _CACHE[:] = [(contexts, graph)]
    return graph


def _finding(path: str, node: ast.AST, message: str) -> Diagnostic:
    return Diagnostic(
        file=path, line=getattr(node, "lineno", 0), rule="",
        severity="", message=message, col=getattr(node, "col_offset", 0),
    )


def _all_wild(patterns: FrozenSet[str]) -> bool:
    return all(set(p) <= {WILDCARD} for p in patterns)


def _resolvable_sends(graph: MessageGraph) -> List[SendSite]:
    """Send sites whose type resolved at least partially.

    A send whose type is a bare unresolved parameter is a forwarding
    shim (``send_many`` fanning out through ``send``): its traffic
    originates at the outer call sites, which *do* resolve, so matching
    rules against the shim would only unify with everything and mute
    the family.
    """
    return [send for send in graph.sends if not _all_wild(send.patterns)]


def _display(patterns: FrozenSet[str]) -> str:
    return ", ".join(sorted(render_pattern(p) for p in patterns))


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------

@rule("M401", "undeliverable-message", scope="project")
def check_undeliverable(contexts) -> Iterator[Diagnostic]:
    """Message type is sent but no handler anywhere could receive it.

    A send whose resolved type unifies with no ``.on`` registration (and
    no ``on_default``) in the whole program is dispatched into
    ``Node._dispatch``'s missing-handler error — or silently dropped at
    the transport layer.  Group-communication bindings are checked the
    same way: a broadcast ``mtype`` the binding's deliver callback
    guards out is delivered to nobody.
    """
    graph = build_graph(contexts)
    handler_patterns = [
        pattern for reg in graph.handlers for pattern in reg.patterns
    ]
    for send in graph.sends:
        if _all_wild(send.patterns):
            continue
        if patterns_unify(send.patterns, handler_patterns):
            continue
        yield _finding(
            send.file, send.node,
            f"message type '{_display(send.patterns)}' is sent here but no "
            f"handler is registered for it anywhere in the program",
        )
    for (owner, attr), variants in sorted(graph.bindings.items()):
        sends = _binding_sends(graph, owner, attr)
        for send in sends:
            if send.attr is None or _all_wild(send.patterns):
                continue
            if _accepted_by_some_variant(send, variants):
                continue
            callback_names = ", ".join(
                cb.label for v in variants for cb in v.callbacks
            ) or "<none>"
            yield _finding(
                send.file, send.node,
                f"broadcast mtype '{_display(send.patterns)}' on "
                f"{owner}.{attr} is never accepted by its deliver "
                f"callback ({callback_names})",
            )


def _binding_sends(graph: MessageGraph, owner: str, attr: str) -> List[BroadcastSend]:
    return graph.sends_for_binding(owner, attr)


def _accepted_by_some_variant(send: BroadcastSend,
                              variants: List[Binding]) -> bool:
    for variant in variants:
        if not variant.callbacks:
            return True  # callback unresolved: assume it accepts
        for callback in variant.callbacks:
            if callback.node is None or callback.accepted is None:
                return True
            if patterns_unify(send.patterns, callback.accepted):
                return True
    return False


@rule("M402", "dead-handler", scope="project")
def check_dead_handlers(contexts) -> Iterator[Diagnostic]:
    """Handler is registered for a message type nothing ever sends.

    The registration is dead code — or, worse, the send site spells the
    type differently and the real traffic is undeliverable.  Group
    bindings get the mirrored check: a deliver callback guarding for an
    ``mtype`` that is never broadcast on that binding waits forever.
    """
    graph = build_graph(contexts)
    send_patterns = [
        pattern for send in _resolvable_sends(graph) for pattern in send.patterns
    ]
    for reg in graph.handlers:
        if reg.wildcard or _all_wild(reg.patterns):
            continue
        if patterns_unify(reg.patterns, send_patterns):
            continue
        yield _finding(
            reg.file, reg.node,
            f"handler registered for message type "
            f"'{_display(reg.patterns)}' but nothing in the program sends "
            f"it",
        )
    for (owner, attr), variants in sorted(graph.bindings.items()):
        sends = _binding_sends(graph, owner, attr)
        sent = [p for s in sends for p in s.patterns]
        has_wild_send = any(_all_wild(s.patterns) for s in sends)
        for variant in variants:
            for callback in variant.callbacks:
                if callback.accepted is None:
                    continue
                for mtype in sorted(callback.accepted):
                    if has_wild_send or patterns_unify([mtype], sent):
                        continue
                    where = callback.guard_node or variant.node
                    yield _finding(
                        variant.file, where,
                        f"deliver callback {callback.label} guards for "
                        f"mtype '{mtype}' but nothing broadcasts it on "
                        f"{owner}.{attr}",
                    )


@rule("M403", "payload-key-never-sent", scope="project")
def check_payload_schemas(contexts) -> Iterator[Diagnostic]:
    """Handler reads a payload key that no matching send site provides.

    A key read unconditionally (``msg["k"]`` or single-argument
    ``msg.pop("k")``) but present in no unifying send's kwargs is a
    guaranteed ``KeyError`` on every delivery.  Sends with a ``**splat``
    make the type's schema open and mute the check for it.
    """
    graph = build_graph(contexts)
    for reg in graph.handlers:
        callback = reg.callback
        if callback.node is None or not callback.required:
            continue
        matching = [
            send for send in _resolvable_sends(graph)
            if patterns_unify(send.patterns, reg.patterns)
        ]
        if not matching or any(send.open for send in matching):
            continue
        sent_keys = {key for send in matching for key in send.keys}
        for key, read in sorted(callback.required.items()):
            if key in sent_keys:
                continue
            yield _finding(
                reg.file, read,
                f"handler {callback.label} for "
                f"'{_display(reg.patterns)}' reads payload key '{key}' "
                f"which no send site of that type provides (guaranteed "
                f"KeyError on delivery)",
            )
    for (owner, attr), variants in sorted(graph.bindings.items()):
        sends = _binding_sends(graph, owner, attr)
        if not sends or any(s.open for s in sends):
            continue
        sent_keys = {key for s in sends for key in s.keys}
        for variant in variants:
            for callback in variant.callbacks:
                if callback.node is None:
                    continue
                for key, read in sorted(callback.required.items()):
                    if key in sent_keys:
                        continue
                    yield _finding(
                        variant.file, read,
                        f"deliver callback {callback.label} reads body "
                        f"key '{key}' which no broadcast on "
                        f"{owner}.{attr} provides",
                    )


@rule("M404", "reply-without-call", severity="warning", scope="project")
def check_reply_correlation(contexts) -> Iterator[Diagnostic]:
    """``reply`` in a handler whose message type is never sent via ``call``.

    ``Node.reply`` answers into the ``reply_to`` future that only
    ``Node.call`` creates; if every send site of the handled type is
    fire-and-forget ``send``, the reply is silently dropped by the
    dispatcher's unmatched-reply path.
    """
    graph = build_graph(contexts)
    by_func = {}
    for reg in graph.handlers:
        if reg.callback.node is not None:
            by_func.setdefault(id(reg.callback.node), []).append(reg)
    for reply in graph.replies:
        if reply.func is None:
            continue
        registrations = by_func.get(id(reply.func), [])
        for reg in registrations:
            matching = [
                send for send in _resolvable_sends(graph)
                if patterns_unify(send.patterns, reg.patterns)
            ]
            if not matching:
                continue
            if any(send.kind == "call" for send in matching):
                continue
            yield _finding(
                reply.file, reply.node,
                f"reply in handler {reg.callback.label} for "
                f"'{_display(reg.patterns)}', but every send of that type "
                f"is fire-and-forget (no .call creates the reply future); "
                f"the reply is silently dropped",
            )


# ---------------------------------------------------------------------------
# The generated catalog
# ---------------------------------------------------------------------------

CATALOG_HEADER = (
    "<!-- Generated by `python -m repro.lint --write-catalog docs/messages.md` "
    "(make catalog). Do not edit by hand. -->"
)


def _location(path: str, node: ast.AST) -> str:
    return f"{path}:{getattr(node, 'lineno', 0)}"


def build_catalog(contexts: Sequence) -> Dict[str, Any]:
    """The whole message graph as JSON-able data, deterministically sorted."""
    graph = build_graph(contexts)
    types: Dict[str, Dict[str, Any]] = {}

    def entry(pattern: str) -> Dict[str, Any]:
        name = render_pattern(pattern)
        return types.setdefault(name, {
            "type": name, "layer": "node", "senders": [], "handlers": [],
            "payload_keys": set(), "open_payload": False,
            "required_reads": set(), "optional_reads": set(),
        })

    for send in graph.sends:
        for pattern in send.patterns:
            record = entry(pattern)
            record["senders"].append({
                "at": _location(send.file, send.node), "kind": send.kind,
                "keys": sorted(send.keys), "open": send.open,
            })
            record["payload_keys"] |= set(send.keys)
            record["open_payload"] = record["open_payload"] or send.open
            if send.layer == "transport":
                record["layer"] = "transport"
    for reg in graph.handlers:
        for pattern in reg.patterns:
            record = entry(pattern)
            record["handlers"].append({
                "at": _location(reg.file, reg.node),
                "handler": reg.callback.label,
                "default": reg.wildcard,
            })
            record["required_reads"] |= set(reg.callback.required)
            record["optional_reads"] |= set(reg.callback.optional)
            if reg.layer == "transport":
                record["layer"] = "transport"

    if graph.replies:
        record = entry(REPLY_TYPE_NAME)
        record["layer"] = "node"
        for reply in graph.replies:
            record["senders"].append({
                "at": _location(reply.file, reply.node), "kind": "reply",
                "keys": sorted(reply.keys), "open": reply.open,
            })
            record["payload_keys"] |= set(reply.keys)
            record["open_payload"] = record["open_payload"] or reply.open
        record["handlers"].append({
            "at": "src/repro/net/node.py (call correlation)",
            "handler": "Node._dispatch", "default": False,
        })

    for record in types.values():
        record["senders"].sort(key=lambda s: (s["at"], s["kind"]))
        record["handlers"].sort(key=lambda h: h["at"])
        record["payload_keys"] = sorted(record["payload_keys"])
        record["required_reads"] = sorted(record["required_reads"])
        record["optional_reads"] = sorted(record["optional_reads"])

    broadcasts: List[Dict[str, Any]] = []
    for (owner, attr), variants in sorted(graph.bindings.items()):
        sends = graph.sends_for_binding(owner, attr)
        for variant in variants:
            broadcasts.append({
                "binding": f"{owner}.{attr}",
                "primitive": variant.primitive,
                "at": _location(variant.file, variant.node),
                "scopes": sorted(render_pattern(s) for s in variant.scopes),
                "callbacks": [
                    {
                        "handler": cb.label,
                        "accepted": (sorted(cb.accepted)
                                     if cb.accepted is not None else ["*"]),
                        "required_reads": sorted(cb.required),
                        "optional_reads": sorted(cb.optional),
                    }
                    for cb in variant.callbacks
                ],
                "mtypes": sorted({
                    render_pattern(p) for s in sends for p in s.patterns
                }),
                "sends": [
                    {
                        "at": _location(s.file, s.node),
                        "mtype": _display(s.patterns),
                        "keys": sorted(s.keys), "open": s.open,
                    }
                    for s in sorted(sends, key=lambda s: (s.file, s.node.lineno))
                ],
            })

    return {
        "types": [types[name] for name in sorted(types)],
        "broadcast_bindings": broadcasts,
    }


def render_catalog_json(catalog: Dict[str, Any]) -> str:
    return json.dumps(catalog, indent=2, sort_keys=True) + "\n"


def render_catalog_markdown(catalog: Dict[str, Any]) -> str:
    lines: List[str] = [
        "# Protocol message catalog",
        "",
        CATALOG_HEADER,
        "",
        "Every string-typed message the tree can put on the wire, with its",
        "senders, handlers and inferred payload schema, as resolved by the",
        "M4xx message-flow pass (`src/repro/lint/msgflow.py`).  `*` marks a",
        "fragment the static evaluator could not pin down.",
        "",
        "## Point-to-point and transport message types",
        "",
        "| type | layer | senders | handlers | payload keys | required reads |",
        "|------|-------|---------|----------|--------------|----------------|",
    ]
    for record in catalog["types"]:
        senders = "<br>".join(
            f"`{s['at']}` ({s['kind']})" for s in record["senders"]
        ) or "—"
        handlers = "<br>".join(
            f"`{h['at']}` {h['handler']}" + (" (default)" if h["default"] else "")
            for h in record["handlers"]
        ) or "—"
        keys = ", ".join(record["payload_keys"]) or "—"
        if record["open_payload"]:
            keys += " (+open)"
        reads = ", ".join(record["required_reads"]) or "—"
        if record["optional_reads"]:
            reads += " (opt: " + ", ".join(record["optional_reads"]) + ")"
        lines.append(
            f"| `{record['type']}` | {record['layer']} | {senders} | "
            f"{handlers} | {keys} | {reads} |"
        )
    lines += [
        "",
        "## Group-communication bindings",
        "",
        "Each binding couples one broadcast primitive instance to a deliver",
        "callback; `mtypes` is the binding's own little type namespace and",
        "`scopes` the wire channels its traffic travels on.",
        "",
        "| binding | primitive | scopes | mtypes | callbacks |",
        "|---------|-----------|--------|--------|-----------|",
    ]
    for binding in catalog["broadcast_bindings"]:
        callbacks = "<br>".join(
            f"{cb['handler']} (accepts: {', '.join(cb['accepted'])};"
            f" reads: {', '.join(cb['required_reads']) or '—'})"
            for cb in binding["callbacks"]
        ) or "—"
        lines.append(
            f"| `{binding['binding']}` (`{binding['at']}`) | "
            f"{binding['primitive']} | "
            f"{', '.join(f'`{s}`' for s in binding['scopes'])} | "
            f"{', '.join(f'`{m}`' for m in binding['mtypes']) or '—'} | "
            f"{callbacks} |"
        )
    lines.append("")
    return "\n".join(lines)
