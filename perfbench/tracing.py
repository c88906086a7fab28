"""Span tracing installed from outside the library.

``install(tracer)`` replaces every public function of each omniair layer
module with a timing wrapper, in every omniair module that binds the name
(callers use ``from .x import y``, so patching only the defining module
would miss most calls). ``Tensor.backward`` and ``Adam.step`` are wrapped
on their classes, and the backward closures of the ``gather``,
``segment_sum`` and ``matmul`` nodes are wrapped as they are created.
``Installation.remove()`` puts every original back.

Spans live in memory (name, start, end, parent, request id) and are written
out by ``Tracer.dump``. A span's self time is its duration minus the time
its child spans cover; spans nest strictly because the library is
single-threaded, so that is the duration minus the sum of child durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "geo", "encoder", "topology", "propagation", "autodiff", "optim", "data",
    "evaluation", "model", "training", "inference", "checkpoint", "cli",
)
# called once per Tensor or per op; wrapping them would time the tracer
_SKIP = {"autodiff": {"grad_enabled", "as_tensor"}}
_METHODS = (("autodiff", "Tensor", "backward"), ("optim", "Adam", "step"))
_BACKWARD_TIMED = ("gather", "segment_sum", "matmul")
_MARK = "__perfbench_original__"


class Tracer:
    """In-memory span store; ``begin``/``finish`` must nest."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.req: list[int] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._request = 0
        self.requests = 0

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.req.append(self._request)
        self.end.append(float("nan"))
        self._open.append(i)
        self.start.append(self.clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = self.clock()
        top = self._open.pop()
        if top != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    @contextmanager
    def request(self, name: str):
        """Top-level span of one benchmark operation, with a fresh request id."""
        self.requests += 1
        prev, self._request = self._request, self.requests
        try:
            with self.span("bench." + name):
                yield
        finally:
            self._request = prev

    def self_times(self) -> np.ndarray:
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.intp)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def summary(self, requests=None) -> dict:
        """Inclusive time and call count per span name, self time per layer.

        Only spans inside requests count; with ``requests`` (a set of
        request names), only those requests. ``wall_s`` is the summed
        duration of the counted request spans.
        """
        dur = np.asarray(self.end) - np.asarray(self.start)
        selfs = self.self_times()
        tops = {
            r for n, p, r in zip(self.names, self.parent, self.req)
            if p < 0 and r > 0 and (requests is None or n[len("bench."):] in requests)
        }
        keep = np.isin(np.asarray(self.req, dtype=np.intp), sorted(tops))
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        layer_self: Counter = Counter()
        wall = 0.0
        for i in np.flatnonzero(keep):
            name = self.names[i]
            inclusive[name] += dur[i]
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += selfs[i]
            if self.parent[i] < 0:
                wall += dur[i]
        return {"inclusive_s": inclusive, "calls": calls, "self_s": layer_self, "wall_s": wall}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "request": self.req[i],
                }) + "\n")


def count_tape_nodes(root) -> int:
    """Nodes reachable from ``root`` through ``_parents`` (root included)."""
    seen = {id(root)}
    todo = [root]
    while todo:
        node = todo.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def _operand_bytes(args, out) -> int:
    total = out.data.nbytes
    for a in args:
        total += getattr(getattr(a, "data", a), "nbytes", 0)
    return total


def _make_hook(qualname: str, tracer: Tracer):
    """Counter updates run after the span closes, outside its timing."""
    module, fn = qualname.split(".", 1)
    if module == "autodiff" and fn in _BACKWARD_TIMED:
        bwd_name = f"autodiff.{fn}_bwd"

        def hook(args, kwargs, out):
            tracer.counters[f"autodiff.{fn}_bytes"] += _operand_bytes(args, out)
            inner = out._backward
            if inner is not None:
                def timed(g, _inner=inner):
                    i = tracer.begin(bwd_name)
                    try:
                        _inner(g)
                    finally:
                        tracer.finish(i)
                out._backward = timed
        return hook
    if qualname == "topology.edge_weights":
        def hook(args, kwargs, out):
            graph = args[1] if len(args) > 1 else kwargs["graph"]
            tracer.counters["topology.edges"] += graph.n_edges
        return hook
    if qualname == "model.masked_mae_loss":
        def hook(args, kwargs, out):
            if "autodiff.tape_nodes" not in tracer.counters:
                tracer.counters["autodiff.tape_nodes"] = count_tape_nodes(out)
        return hook
    if qualname == "optim.step":
        def hook(args, kwargs, out):
            tracer.counters["optim.skipped_steps"] += int(out is False)
        return hook
    if qualname == "data.make_windows":
        def hook(args, kwargs, out):
            tracer.counters["data.windows"] += len(out.starts)
        return hook
    return None


def _wrap(fn, qualname: str, tracer: Tracer):
    hook = _make_hook(qualname, tracer)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = tracer.begin(qualname)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.finish(i)
                if hook is not None:
                    hook(args, kwargs, item)
                yield item
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.begin(qualname)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            if hook is not None:
                hook(args, kwargs, out)
            return out
    setattr(wrapper, _MARK, fn)
    return wrapper


def _omniair_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "omniair" or name.startswith("omniair."))]


class Installation:
    """The replaced bindings of one ``install`` call; ``remove`` restores them."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def remove(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def install(tracer: Tracer) -> Installation:
    layer_modules = {name: importlib.import_module(f"omniair.{name}") for name in LAYERS}
    wrappers: dict[int, object] = {}
    for layer, mod in layer_modules.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and name not in _SKIP.get(layer, ())):
                wrappers[id(obj)] = _wrap(obj, f"{layer}.{name}", tracer)
    inst = Installation()
    for mod in _omniair_modules():
        for name, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                inst.patches.append((mod, name, obj))
                setattr(mod, name, wrapper)
    for layer, cls_name, meth in _METHODS:
        cls = getattr(layer_modules[layer], cls_name)
        original = cls.__dict__[meth]
        inst.patches.append((cls, meth, original))
        setattr(cls, meth, _wrap(original, f"{layer}.{meth}", tracer))
    return inst


def leftover_wrappers() -> list[str]:
    """Names in omniair modules or wrapped classes still bound to a wrapper."""
    found = []
    for mod in _omniair_modules():
        for name, obj in vars(mod).items():
            if hasattr(obj, _MARK):
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, val in vars(obj).items():
                    if hasattr(val, _MARK):
                        found.append(f"{mod.__name__}.{name}.{meth}")
    return found
