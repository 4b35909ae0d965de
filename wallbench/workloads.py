"""The benchmark's workloads, and one pass over a workload's cells.

A *cell* is one (algorithm, variant, runtime, dataset) run.  A *pass*
imports the program, builds every graph of the workload once, then runs
each cell on a fresh runtime, push and pull.  :func:`run_pass` times
every phase with ``perf_counter`` and, when asked, checks each result
against the repository's reference oracles (outside the timed
sections).

Why each workload (the choice is what makes the benchmark useful):

* ``large-batched`` -- the batched stream engine with flat counting
  memory at 2**17 vertices.  Graph generation and the CSR build are a
  large share of host time here, and the weighted graph takes the
  keep-minimum-weight dedup path.  The cache simulator is bypassed.
* ``cachesim`` -- the trace-driven cache simulator at the repository
  default ``cache_scale=64``: batched SM kernels feed it through
  ``access_batch``, interpreted DM kernels through per-element
  ``_touch``.  The graphs are tiny, so CSR build cost is negligible.
* ``interp-traced`` -- interpreted kernels on the high-diameter ``road``
  and communication-heavy ``comm`` graphs, SM and DM, each under the
  program's own tracer with a full flamegraph export (the ``repro
  trace`` user flow): per-element memory accounting, the DM runtime
  and the observability layer are on the timed path.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

#: the workload seed when none is given; the committed digests are for it
DEFAULT_SEED = 7

#: simulated threads / ranks of every cell
PROCS = 4

#: PageRank iterations of every PR cell
PR_ITERATIONS = 5

#: modules a pass imports up front, so that import cost is set-up time
#: and not charged to the first kernel that needs them
IMPORTS = (
    "repro",
    "repro.analysis.runner",
    "repro.algorithms.reference",
    "repro.algorithms.pagerank",
    "repro.algorithms.bfs",
    "repro.algorithms.sssp_delta",
    "repro.algorithms.connected_components",
    "repro.algorithms.dm_pagerank",
    "repro.algorithms.dm_bfs",
    "repro.algorithms.dm_sssp",
    "repro.machine.memory",
    "repro.observability.export",
    "repro.observability.flame",
    "repro.observability.hwcounters",
    "repro.observability.tracer",
    "repro.runtime.dm",
    "repro.runtime.sm",
    "repro.streams.kernels",
    "scipy.sparse.csgraph",
)

#: result field holding each algorithm's answer
RESULT_FIELD = {"pagerank": "ranks", "bfs": "level", "sssp": "dist",
                "cc": "labels"}


@dataclass(frozen=True)
class Graph:
    """One input graph: ``repro.analysis.runner.instance_graph`` args."""

    key: str
    dataset: str
    n: int
    weighted: bool = False


@dataclass(frozen=True)
class Cell:
    algorithm: str
    variant: str
    runtime: str      #: "sm" or "dm"
    graph: str        #: a :class:`Graph` key

    @property
    def id(self) -> str:
        return f"{self.algorithm}/{self.variant}/{self.runtime}/{self.graph}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    engine: str           #: SM engine: "batched" or "interpreted"
    cache_scale: int      #: 0 = counting memory, else the cache simulator
    traced: bool          #: run each cell under the program's tracer
    graphs: tuple
    cells: tuple


def _grid(algorithms, runtimes, graphs) -> tuple:
    return tuple(Cell(a, v, r, g) for g in graphs for r in runtimes
                 for a in algorithms for v in ("push", "pull"))


LARGE_N = 1 << 17

WORKLOADS = {w.name: w for w in (
    Workload(
        name="large-batched",
        why="CSR build and graph generation at 2^17 vertices with the "
            "cache simulator bypassed; the weighted graph takes the "
            "keep-minimum-weight dedup path",
        engine="batched", cache_scale=0, traced=False,
        graphs=(Graph("er", "er", LARGE_N), Graph("rmat", "rmat", LARGE_N),
                Graph("er-w", "er", LARGE_N, weighted=True)),
        cells=_grid(("pagerank", "bfs", "cc"), ("sm",), ("er", "rmat"))
        + _grid(("sssp",), ("sm",), ("er-w",))),
    Workload(
        name="cachesim",
        why="the cache simulator at cache_scale=64, fed by batched SM "
            "replay and per-element DM touches; graphs too small for the "
            "CSR build to matter",
        engine="batched", cache_scale=64, traced=False,
        graphs=(Graph("er", "er", 800), Graph("er-w", "er", 800, True),
                Graph("comm", "comm", 500),
                Graph("comm-w", "comm", 500, True)),
        cells=_grid(("pagerank", "bfs", "cc"), ("sm",), ("er",))
        + _grid(("sssp",), ("sm",), ("er-w",))
        + _grid(("pagerank", "bfs"), ("dm",), ("comm",))
        + _grid(("sssp",), ("dm",), ("comm-w",))),
    Workload(
        name="interp-traced",
        why="per-element memory accounting, the DM runtime and the "
            "program's tracer plus flamegraph export, on high-diameter "
            "road and communication-heavy comm graphs",
        engine="interpreted", cache_scale=0, traced=True,
        graphs=(Graph("road", "road", 1000), Graph("road-w", "road", 1000, True),
                Graph("comm", "comm", 1000), Graph("comm-w", "comm", 1000, True)),
        cells=_grid(("pagerank", "bfs"), ("sm", "dm"), ("road", "comm"))
        + _grid(("sssp",), ("sm", "dm"), ("road-w", "comm-w"))),
)}


def import_program() -> float:
    """Import every module a pass uses; returns the seconds it took."""
    t0 = time.perf_counter()
    for name in IMPORTS:
        importlib.import_module(name)
    return time.perf_counter() - t0


def build_graphs(workload: Workload, seed: int) -> dict:
    runner = importlib.import_module("repro.analysis.runner")
    return {g.key: runner.instance_graph(g.dataset, g.n, d_bar=4.0,
                                         seed=seed, weighted=g.weighted)
            for g in workload.graphs}


def graph_digest(g) -> str:
    h = hashlib.sha256()
    for a in (g.offsets, g.adj, g.weights):
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def sim_digest(rt) -> str:
    """Digest of the first clock: simulated time and every counter."""
    doc = {"time_mtu": rt.time, "counters": rt.total_counters().to_dict()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()
                          ).hexdigest()[:16]


def result_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()
                          ).hexdigest()[:16]


def _runtime(workload: Workload, cell: Cell, g):
    """A fresh runtime for ``cell``, equipped the way ``repro trace``
    equips one; returns ``(rt, tracer)``."""
    if cell.runtime == "dm":
        rt = importlib.import_module("repro.runtime.dm").DMRuntime(g.n, PROCS)
    else:
        rt = importlib.import_module("repro.runtime.sm").SMRuntime(g, PROCS)
    if workload.cache_scale:
        importlib.import_module("repro.observability.hwcounters") \
            .equip_cache_sim(rt, cache_scale=workload.cache_scale)
    tracer = None
    if workload.traced:
        tracer = importlib.import_module("repro.observability.tracer") \
            .attach_tracer(rt, graph=g)
    return rt, tracer


def _cache_stats(rt) -> dict:
    """Line accesses and misses of a cache-simulator memory (empty for
    the counting models)."""
    sims = getattr(rt.mem, "_sims", None)
    if not sims:
        return {}
    l3s = {id(s.l3): s.l3 for s in sims}
    return {"line_accesses": sum(s.accesses for s in sims),
            "l1_misses": sum(s.l1.misses for s in sims),
            "l2_misses": sum(s.l2.misses for s in sims),
            "l3_misses": sum(l3.misses for l3 in l3s.values()),
            "tlb_misses": sum(s.tlb.misses for s in sims)}


def _dm_stats(rt) -> dict:
    if not hasattr(rt, "superstep_index"):
        return {}
    c = rt.total_counters()
    return {"supersteps": rt.superstep_index, "messages": c.messages,
            "msg_bytes": c.msg_bytes,
            "remote_ops": c.remote_gets + c.remote_puts + c.remote_acc_int
            + c.remote_acc_float}


def _function(module: str, name: str):
    # looked up at call time, so the traced run's wrappers are called
    return getattr(importlib.import_module(module), name)


def run_kernel(cell: Cell, engine: str, g, rt, root: int):
    """Run ``cell``'s kernel the way ``repro trace`` dispatches it, but
    with traversals starting at ``root``."""
    alg, v = cell.algorithm, cell.variant
    if cell.runtime == "dm":
        if alg == "pagerank":
            return _function("repro.algorithms.dm_pagerank", "dm_pagerank")(
                g, rt, variant=f"rma-{v}", iterations=PR_ITERATIONS)
        if alg == "bfs":
            return _function("repro.algorithms.dm_bfs", "dm_bfs")(
                g, rt, root=root, variant=v)
        return _function("repro.algorithms.dm_sssp", "dm_sssp_delta")(
            g, rt, source=root, variant=v)
    if engine == "batched":
        module, name = "repro.streams.kernels", f"{alg}_batched"
        if alg == "sssp":
            name = "sssp_delta_batched"
    else:
        module, name = {
            "pagerank": ("repro.algorithms.pagerank", "pagerank"),
            "bfs": ("repro.algorithms.bfs", "bfs"),
            "sssp": ("repro.algorithms.sssp_delta", "sssp_delta"),
            "cc": ("repro.algorithms.connected_components",
                   "connected_components")}[alg]
    kwargs = {"pagerank": {"iterations": PR_ITERATIONS}, "bfs": {"root": root},
              "sssp": {"source": root}, "cc": {}}[alg]
    return _function(module, name)(g, rt, direction=v, **kwargs)


def run_cell(workload: Workload, cell: Cell, g, root: int,
             outdir: str) -> dict:
    """Run one cell; returns its timings, digests, counts and answer."""
    t0 = time.perf_counter()
    rt, tracer = _runtime(workload, cell, g)
    t1 = time.perf_counter()
    result = run_kernel(cell, workload.engine, g, rt, root)
    t2 = time.perf_counter()
    if tracer is not None:
        importlib.import_module("repro.observability.export").write_outputs(
            tracer, os.path.join(outdir, cell.id.replace("/", "-")),
            flame=True)
    c = rt.total_counters()
    record = {
        "id": cell.id, "setup_s": t1 - t0, "kernel_s": t2 - t1,
        "events": c.reads + c.writes + c.atomics + c.locks,
        "sim_digest": sim_digest(rt),
        "answer": getattr(result, RESULT_FIELD[cell.algorithm]),
        "cache": _cache_stats(rt), "dm": _dm_stats(rt), "problems": [],
    }
    record["result_digest"] = result_digest(record["answer"])
    if tracer is not None:
        traced, actual = tracer.reconcile()
        if traced.to_dict() != actual.to_dict():
            record["problems"].append("tracer counters do not reconcile")
        if not tracer.critical_totals()["reconciled"]:
            record["problems"].append("critical path does not sum to time")
        record["tracer_events"] = tracer.n_events
        record["sink_peak_bytes"] = tracer.peak_sink_bytes
    return record


def same_partition(a, b) -> bool:
    """True when two labelings group the vertices identically."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == np.unique(a).size == np.unique(b).size


def components(g) -> np.ndarray:
    """Connected-component label per vertex (scipy)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    adj = csr_matrix((np.ones(len(g.adj)), g.adj, g.offsets),
                     shape=(g.n, g.n))
    return connected_components(adj, directed=False)[1]


def giant_root(g) -> int:
    """The lowest vertex of the largest component.

    Traversals start here so that every seed traverses most of the
    graph; from vertex 0 some seeds would traverse a handful of
    vertices and time almost nothing.
    """
    labels = components(g)
    return int(np.argmax(labels == np.argmax(np.bincount(labels))))


def oracle_problem(algorithm: str, g, root: int, answer) -> str | None:
    """Compare one answer with the reference oracle; ``None`` if it
    agrees, else what is wrong."""
    ref = importlib.import_module("repro.algorithms.reference")
    if algorithm == "pagerank":
        expect = ref.pagerank_reference(g, iterations=PR_ITERATIONS)
        ok = np.allclose(answer, expect, rtol=1e-9, atol=1e-15)
    elif algorithm == "bfs":
        ok = np.array_equal(answer, ref.bfs_reference(g, root))
    elif algorithm == "sssp":
        ok = np.allclose(answer, ref.sssp_reference(g, root), rtol=1e-9,
                         atol=0.0)
    else:
        ok = same_partition(answer, components(g))
    return None if ok else f"{algorithm} answer disagrees with the oracle"


def run_pass(workload: Workload, seed: int, outdir: str,
             check: bool = True, recorder=None) -> dict:
    """One pass: build the graphs once, then run every cell.

    Returns ``{"build_s", "run_s", "graphs", "cells"}``, ``run_s``
    being build plus cells, checks excluded; each cell record says
    what went wrong in ``problems`` (empty when it passed).  With
    ``check`` every answer is compared with its oracle after all cells
    ran, outside the timed sections.  ``recorder`` (a
    :class:`~spans.SpanRecorder`) adds the benchmark's own spans.
    """
    span = recorder.span if recorder is not None else (
        lambda name: nullcontext())

    t0 = time.perf_counter()
    with span("bench.build"):
        graphs = build_graphs(workload, seed)
    build_s = time.perf_counter() - t0
    # choosing the roots is input generation, not the program's work
    roots = {k: giant_root(g) for k, g in graphs.items()}
    t1 = time.perf_counter()
    cells = []
    for cell in workload.cells:
        with span("bench.cell"):
            try:
                record = run_cell(workload, cell, graphs[cell.graph],
                                  roots[cell.graph], outdir)
            except Exception as exc:  # a crashing cell is a failed cell
                record = {"id": cell.id, "problems": [f"raised {exc!r}"]}
        cells.append(record)
    run_s = build_s + time.perf_counter() - t1
    if check:
        for cell, record in zip(workload.cells, cells):
            if "answer" in record:
                problem = oracle_problem(cell.algorithm, graphs[cell.graph],
                                         roots[cell.graph], record["answer"])
                if problem:
                    record["problems"].append(problem)
    for record in cells:
        record.pop("answer", None)
    return {"build_s": build_s, "run_s": run_s, "cells": cells,
            "graphs": {k: graph_digest(g) for k, g in graphs.items()}}

