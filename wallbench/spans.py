"""Span recorder for the traced benchmark run.

The traced run times calls into each layer's public entry points from
the benchmark's own files: :func:`install_layers` replaces each entry
point listed in :data:`LAYERS` with a wrapper that opens a span on
entry and closes it on exit.  ``src/`` is not edited.

A span's *self time* is its duration minus the durations of the spans
it directly encloses.  Spans of the coarse layers (graph generation,
CSR build, runtime set-up, kernels, replay batches, export) are kept in
memory with their parent's id and written out at the end; the
per-element layers (memory-model verbs and cache-simulator batches) run
hundreds of thousands of times per pass, so only their per-layer
totals are kept.  The totals are exact either way, because a closing
span always charges its duration to the enclosing open span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

#: (layer, module, attribute) -- every public entry point the traced run
#: wraps; ``Class.method`` attributes are wrapped on the class
LAYERS = (
    ("generators", "repro.generators.erdos_renyi", "erdos_renyi"),
    ("generators", "repro.generators.kronecker", "rmat"),
    ("generators", "repro.generators.road", "road_network"),
    ("generators", "repro.generators.realworld", "community_graph"),
    ("graph.from_edges", "repro.graph.builder", "from_edges"),
    ("runtime.setup", "repro.runtime.sm", "SMRuntime.__init__"),
    ("runtime.setup", "repro.runtime.dm", "DMRuntime.__init__"),
    ("runtime.setup", "repro.observability.hwcounters", "equip_cache_sim"),
    ("streams.kernel", "repro.streams.kernels", "pagerank_batched"),
    ("streams.kernel", "repro.streams.kernels", "bfs_batched"),
    ("streams.kernel", "repro.streams.kernels", "sssp_delta_batched"),
    ("streams.kernel", "repro.streams.kernels", "cc_batched"),
    ("streams.replay", "repro.streams.memory", "StreamMemory.replay"),
    ("algorithms.kernel", "repro.algorithms.pagerank", "pagerank"),
    ("algorithms.kernel", "repro.algorithms.bfs", "bfs"),
    ("algorithms.kernel", "repro.algorithms.sssp_delta", "sssp_delta"),
    ("algorithms.kernel", "repro.algorithms.connected_components",
     "connected_components"),
    ("algorithms.kernel", "repro.algorithms.dm_pagerank", "dm_pagerank"),
    ("algorithms.kernel", "repro.algorithms.dm_bfs", "dm_bfs"),
    ("algorithms.kernel", "repro.algorithms.dm_sssp", "dm_sssp_delta"),
    ("machine.memory", "repro.machine.memory", "MemoryModel.read"),
    ("machine.memory", "repro.machine.memory", "MemoryModel.write"),
    ("machine.memory", "repro.machine.memory", "MemoryModel.faa"),
    ("machine.memory", "repro.machine.memory", "MemoryModel.cas"),
    ("machine.memory", "repro.machine.memory", "MemoryModel.lock"),
    ("machine.memory", "repro.machine.memory", "CountingMemory.touch_batch"),
    ("machine.cache", "repro.machine.cache", "CacheSim.access"),
    ("observability.export", "repro.observability.export", "write_outputs"),
)

#: layers whose spans are too many to keep one by one
TOTALS_ONLY = frozenset({"machine.memory", "machine.cache"})


class SpanRecorder:
    """Nested spans with exact self time.

    ``clock`` returns seconds; tests pass a synthetic one.  ``spans``
    holds one ``(id, parent_id, name, start, end, self_s)`` tuple per
    kept span, ``parent_id`` being the nearest enclosing kept span
    (``None`` at the root).  ``totals[name]`` is ``[calls, total_s,
    self_s]`` over every span of that name, kept or not, and
    ``counts`` holds the counters the wrappers add at the same
    boundaries.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        # open frames: [name, start, child_s, span_id or None]
        self._stack: list[list] = []
        self._next_id = 0

    def _open(self, name: str, keep: bool) -> list:
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, 0.0, span_id]
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child_s, span_id = frame
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += self_s
        if span_id is not None:
            self.spans.append((span_id, self._parent_id(), name, start, end,
                               self_s))

    def _parent_id(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    @contextmanager
    def span(self, name: str, keep: bool = True):
        """Time the ``with`` body as one span named ``name``."""
        frame = self._open(name, keep)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, fn, name: str, keep: bool = True, after=None):
        """``fn`` timed as a span; ``after(recorder, bound_args, result)``
        runs outside the span once it returns."""
        signature = inspect.signature(fn) if after is not None else None

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            return result

        return wrapper

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def dump(self, path: str) -> None:
        """Write the kept spans and the per-layer totals as JSON."""
        doc = {
            "spans": [dict(zip(("id", "parent", "name", "start", "end",
                                "self_s"), s)) for s in self.spans],
            "totals": {k: dict(zip(("calls", "total_s", "self_s"), v))
                       for k, v in sorted(self.totals.items())},
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


def _count_arcs(rec: SpanRecorder, args: dict, graph) -> None:
    """Arcs handed to the CSR build and arcs it kept; kept / in is the
    dedup-and-self-loop ratio."""
    pairs = len(args["edges"])
    rec.add("graph.from_edges.arcs_in",
            pairs if args["directed"] else 2 * pairs)
    rec.add("graph.from_edges.arcs_out", len(graph.adj))


AFTER = {"graph.from_edges": _count_arcs}


def install_layers(rec: SpanRecorder):
    """Wrap every :data:`LAYERS` entry point; returns a function that
    restores the originals.

    A function imported by name into another module (the generators do
    ``from repro.graph.builder import from_edges``) is replaced there
    too, so every call site goes through the wrapper.
    """
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for layer, module_name, path in LAYERS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        wrapper = rec.wrap(original, layer, keep=layer not in TOTALS_ONLY,
                           after=AFTER.get(layer))
        patch(owner, attr, wrapper)
        if classes:
            continue
        for name, module in list(sys.modules.items()):
            if module is None or module is owner or not (
                    name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    patch(module, key, wrapper)

    def restore() -> None:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)

    return restore
