"""Wrap the entry points of the ``repro`` packages with tracer spans.

Every function and method defined in a hot-path package is replaced by a
wrapper that counts the call and, when the call crosses into another
layer, opens a span of the callee's layer.  Nothing under ``src/`` is
edited: wrappers are installed on the imported classes and modules and
removed again by :meth:`Installation.restore`.

Three kinds of callable need more than a plain wrapper:

* generator functions (simulated processes) run their body on every
  resumption, not at the call, so each resumption is a span;
* ``@contextmanager`` helpers are rebuilt around a traced generator;
* closures are invisible to class and module scans, so the calls that
  register callbacks (timers, future callbacks, message handlers,
  listeners) wrap any closure they receive with its defining layer.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import inspect
import sys
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

from tracer import Tracer

# Layers that get metrics, in report order.  ``core`` is the sum of its
# parts (core.protocol, core.edge, core.admission, core.other); ``other``
# (analysis, resilience) is off the hot path and counts as unattributed.
LAYERS = ("sim", "net", "groupcomm", "failures", "db", "core", "workload", "obs")

# Methods that hand a callback to another layer; closures among their
# positional arguments are wrapped with the closure's own layer.
_REGISTRATIONS = frozenset({
    "schedule_at", "add_callback", "on", "on_suspect", "on_restore",
    "subscribe", "add_recover_hook",
})
_KEPT_DUNDERS = frozenset({"__init__", "__call__"})


def layer_of(module: str, qualname: str) -> Optional[str]:
    """Layer of code defined in ``module`` under ``qualname``, or None."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    package = parts[1]
    # TraceLog and PhaseTracer are recorders: they belong with obs.
    if module in ("repro.sim.tracing", "repro.core.phases"):
        return "obs"
    if package == "core":
        if module.startswith("repro.core.protocols"):
            return "core.protocol"
        if module == "repro.core.admission":
            return "core.admission"
        if module == "repro.core.system" and qualname.startswith("ClientNode."):
            return "core.edge"
        return "core.other"
    if package in ("sim", "net", "groupcomm", "failures", "db", "workload", "obs"):
        return package
    if package in ("analysis", "resilience"):
        return "other"
    return None


def fold_core(layer_self: Dict[str, float]) -> Dict[str, float]:
    """Per-layer self time with the core parts summed into ``core``."""
    folded = {layer: 0.0 for layer in LAYERS}
    for layer, seconds in layer_self.items():
        key = "core" if layer.startswith("core.") else layer
        folded[key] = folded.get(key, 0.0) + seconds
    return folded


class Installation:
    """The wrappers installed by :func:`install`; ``restore`` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []
        self.entry_points = 0

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _adopter(tracer: Tracer) -> Callable[[tuple], tuple]:
    """Argument rewriter wrapping untraced ``repro`` closures with their layer."""

    def adopt(args: tuple) -> tuple:
        adopted = None
        for index, arg in enumerate(args):
            if (type(arg) is types.FunctionType
                    and not hasattr(arg, "__bench_layer__")
                    and arg.__module__.startswith("repro.")):
                layer = layer_of(arg.__module__, arg.__qualname__)
                if layer is not None:
                    if adopted is None:
                        adopted = list(args)
                    adopted[index] = _mark(
                        tracer.wrap(arg, layer, f"{layer}:{arg.__qualname__}"), arg, layer
                    )
        return args if adopted is None else tuple(adopted)

    return adopt


def _mark(traced: Callable, fn: Callable, layer: str) -> Callable:
    functools.update_wrapper(traced, fn)
    traced.__bench_layer__ = layer
    return traced


def _generator(tracer: Tracer, fn: Callable, layer: str, name: str) -> Callable:
    """A generator function whose every resumption is a span of ``layer``."""
    stats = tracer.entry(layer, name)

    def traced(*args, **kwargs):
        stats[0] += 1
        inner = fn(*args, **kwargs)
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            crossing = tracer.layer != layer
            if crossing:
                tracer.enter(layer, name)
            try:
                if error is not None:
                    exc, error = error, None
                    item = inner.throw(exc)
                else:
                    item = inner.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                if crossing:
                    tracer.exit()
            try:
                value = yield item
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # delivered into the inner generator
                error, value = exc, None

    return _mark(traced, fn, layer)


def _wrap(tracer: Tracer, fn: Callable, layer: str, name: str,
          attr: str) -> Callable:
    wrapped = getattr(fn, "__wrapped__", None)
    if wrapped is not None and inspect.isgeneratorfunction(wrapped):
        # @contextmanager helper: trace the generator, then rebuild it.
        return contextlib.contextmanager(_generator(tracer, wrapped, layer, name))
    if inspect.isgeneratorfunction(fn):
        return _generator(tracer, fn, layer, name)
    adopt = _adopter(tracer) if attr in _REGISTRATIONS else None
    return _mark(tracer.wrap(fn, layer, name, adopt), fn, layer)


def _wrap_class(inst: Installation, cls: type, module: str, short: str) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("__") and attr not in _KEPT_DUNDERS:
            continue
        qualname = f"{cls.__qualname__}.{attr}"
        layer = layer_of(module, qualname)
        if layer is None:
            continue
        name = f"{layer}:{short}.{qualname}"
        if isinstance(value, staticmethod):
            new = staticmethod(_wrap(inst.tracer, value.__func__, layer, name, attr))
        elif isinstance(value, classmethod):
            new = classmethod(_wrap(inst.tracer, value.__func__, layer, name, attr))
        elif isinstance(value, types.FunctionType):
            new = _wrap(inst.tracer, value, layer, name, attr)
        else:
            continue  # properties, constants
        inst._set(cls, attr, new)
        inst.entry_points += 1


def install(tracer: Tracer) -> Installation:
    """Wrap every traced-layer module already imported under ``repro``."""
    inst = Installation(tracer)
    modules = sorted(
        (name, module) for name, module in sys.modules.items()
        if name.startswith("repro.") and module is not None
    )
    replaced: Dict[int, Callable] = {}
    for module_name, module in modules:
        if layer_of(module_name, "") is None:
            continue
        short = module_name.split(".", 1)[1]
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module_name:
                continue
            if isinstance(value, type):
                if issubclass(value, (BaseException, enum.Enum)):
                    continue
                _wrap_class(inst, value, module_name, short)
            elif isinstance(value, types.FunctionType):
                layer = layer_of(module_name, value.__qualname__)
                new = _wrap(tracer, value, layer, f"{layer}:{short}.{attr}", attr)
                replaced[id(value)] = new
                inst.entry_points += 1
    # Module functions are looked up through globals: rebind every
    # module-level reference, including ``from x import f`` copies.
    for _name, module in modules:
        for attr, value in list(vars(module).items()):
            new = replaced.get(id(value))
            if new is not None:
                inst._set(module, attr, new)
    return inst
