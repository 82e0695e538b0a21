"""Span tracer installed from outside the library.

``Tracer.install()`` replaces every public function of each ``vsakit``
module, and every public method of the classes those modules define, with a
wrapper that records one span per call: name, start, end, parent span and
thread. Modules that imported a function by name (``from .setalg import
require_flat``) get the wrapper too, so calls across modules are seen
whichever way they were imported. ``uninstall()`` puts every original back.

Spans stay in memory; ``write_csv`` writes them out once the run is over.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import threading
import time
import types

LAYERS = (
    "rng", "codebook", "hypervector", "setalg", "mapi", "mapb", "bloom",
    "cbloom", "hopfield", "serialize", "sizing", "harness", "cli",
)


def _sizeof(attr):
    return lambda result: getattr(result, attr).nbytes


#: Per-call counters taken from a call's result, keyed by traced name:
#: name -> (counter, result -> amount).
RESULT_COUNTERS = {
    "rng.Stream.words": ("rng.words.words", len),
    "bloom.bundle_bloom": ("bloom.bundle_bytes", _sizeof("bits")),
    "hopfield.hpm_encode": ("hopfield.hpm_bytes", _sizeof("matrix")),
    "hopfield.recall": ("hopfield.recall.iters", lambda result: result.iters),
    "hopfield.recall_step": ("hopfield.recall.iters", lambda result: 1),
    "serialize.bundle_to_bytes": ("serialize.wire_bytes", len),
    "sizing.calibrate": ("sizing.calibrate.probes", lambda result: len(result.rates)),
}


class Tracer:
    """Records spans of every public library call while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, thread, name, start_ns, end_ns)
        self.counters: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.run_threads: dict[int, int] = {}  # harness.run span id -> worker threads
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._main_thread = threading.get_ident()
        self._main_stack: list[tuple] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main_thread else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        counter = RESULT_COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                # A pool worker's first call: the open call on the main
                # thread started the pool, so it is the parent.
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            if name == "harness.run":
                tracer.run_threads[sid] = kwargs.get("threads", args[1] if len(args) > 1 else 1)
            frame = (sid, layer)
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[1] != layer:
                    with tracer._lock:
                        tracer.failed[layer] = tracer.failed.get(layer, 0) + 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent[0] if parent else -1,
                                     threading.get_ident(), name, start, end))
            if counter is not None:
                key, amount = counter
                with tracer._lock:
                    tracer.counters[key] = tracer.counters.get(key, 0) + amount(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"vsakit.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                    replaced[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._patch_class(f"{layer}.{attr}", value)
        package = importlib.import_module("vsakit")
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, qualname: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(f"{qualname}.{attr}", raw.__func__))
            elif isinstance(raw, types.FunctionType):
                wrapped = self._wrap(f"{qualname}.{attr}", raw)
            else:
                continue  # properties and constants
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("id", "parent", "thread", "name", "start_ns", "end_ns"))
            writer.writerows(self.spans)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> seconds not covered by the union of its child spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _sid, parent, _thread, _name, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _thread, _name, start, end in spans:
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start - covered) / 1e9
    return out
