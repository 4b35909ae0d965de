"""The kernel table: which kernels exist, how each runs, how each is checked.

One :class:`KernelSpec` row per (algorithm x runtime x variant x
engine).  Every driver -- ``repro run`` / ``repro trace``, the race,
epoch and chaos matrices of ``repro analyze``, the bench grids, and the
effects reconciliation -- iterates :data:`KERNELS` instead of keeping
its own dispatch chain, so an unsupported combination is simply a
missing row (``docs/analysis.md``, "Kernel matrix", lists the holes).

Callables are named as ``"module:function"`` strings and imported on
first use, so importing this table costs no kernel imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable

import numpy as np

#: execution engines: "interpreted" = per-element MemoryModel calls,
#: "batched" = stream-emitting kernels (repro.streams) replaying numpy
#: op batches -- byte-identical counters, far less Python dispatch
ENGINES = ("interpreted", "batched")


def _resolve(path: str) -> Callable:
    module, _, name = path.partition(":")
    return getattr(import_module(module), name)


@dataclass(frozen=True)
class KernelSpec:
    """One row of the kernel matrix."""

    name: str                 #: CLI name (``repro run`` / ``repro trace``)
    label: str                #: Section-4 display label (PR, SSSP-Δ, ...)
    runtime: str              #: "sm" or "dm"
    variant: str              #: direction (SM) or backend (DM)
    #: "interpreted" / "batched"; None = serves every engine unchanged
    #: (DM kernels already emit per-superstep verb batches)
    engine: str | None
    kernel: str               #: "module:function", resolved lazily
    result: str               #: result field the oracle judges
    #: ``oracle(reference_module, g, start, budget)`` -> expected answer
    oracle: Callable
    compare: Callable         #: ``compare(answer, expected) -> bool``
    summary: Callable         #: ``summary(result, g, start)`` for ``run``
    effect: str | None = None  #: :data:`repro.analysis.effects.KERNELS` name
    weighted: bool = False
    start: str | None = None  #: start-vertex keyword: "root" / "source"
    budget: tuple[str, int] | None = None  #: (keyword, default) round budget
    #: keyword receiving ``variant``; None for a single-variant kernel
    variant_kw: str | None = None
    #: SM only: (``repro.pram.costs`` function name, ``(iterations,
    #: inner_iterations, sources) -> keywords``) of the Section-4 bound
    cost: tuple[str, Callable] | None = None
    #: DM only: how often a cut edge may be re-examined (result, d_hat)
    rounds: Callable | None = None
    aliases: tuple[str, ...] = ()

    @property
    def names(self) -> tuple[str, ...]:
        return (self.name, self.label) + self.aliases

    def run(self, g, rt, start: int = 0, budget: int | None = None):
        """Call the kernel; ``budget`` overrides the row's default."""
        kwargs: dict[str, Any] = {}
        if self.start:
            kwargs[self.start] = start
        if self.variant_kw:
            kwargs[self.variant_kw] = self.variant
        if self.budget:
            key, default = self.budget
            kwargs[key] = default if budget is None else budget
        return _resolve(self.kernel)(g, rt, **kwargs)

    def reference(self, g, start: int = 0, budget: int | None = None):
        """The sequential oracle's answer to the inputs :meth:`run` takes."""
        if budget is None and self.budget:
            budget = self.budget[1]
        return self.oracle(import_module("repro.algorithms.reference"),
                           g, start, budget)

    def agrees(self, result, expected) -> bool:
        return bool(self.compare(getattr(result, self.result), expected))


def _ranks_close(a, b) -> bool:
    # recovery replays reorder float accumulates, which legally
    # reassociates the sums
    return np.allclose(a, b, atol=1e-9)


def _holds(answer, predicate) -> bool:
    return predicate(answer)


def _sampled_sources(n: int, k: int) -> np.ndarray:
    # betweenness_centrality's sampling of ``k`` sources (default seed 0)
    return np.random.default_rng(0).choice(n, size=min(k, n), replace=False)


def _rows(algo: dict, runtime: str, engine: str | None, kernel: str,
          variants: tuple[str, ...], **extra) -> tuple[KernelSpec, ...]:
    # SM kernels take ``direction=``, DM kernels ``variant=``
    extra.setdefault("variant_kw",
                     "variant" if runtime == "dm" else "direction")
    return tuple(KernelSpec(runtime=runtime, engine=engine, kernel=kernel,
                            variant=v, **algo, **extra) for v in variants)


_PR = dict(
    name="pagerank", label="PR", result="ranks", budget=("iterations", 5),
    oracle=lambda ref, g, s, b: ref.pagerank_reference(g, iterations=b),
    compare=_ranks_close,
    summary=lambda r, g, s: f"top vertex {int(np.argmax(r.ranks))}")
_TC = dict(
    name="triangles", label="TC", result="per_vertex",
    oracle=lambda ref, g, s, b: ref.triangle_per_vertex_reference(g),
    compare=np.array_equal, summary=lambda r, g, s: f"{r.total} triangles")
_BFS = dict(
    name="bfs", label="BFS", result="level", start="root",
    oracle=lambda ref, g, s, b: ref.bfs_reference(g, s),
    compare=np.array_equal,
    summary=lambda r, g, s:
        f"reached {int((r.level >= 0).sum())}/{g.n} from {s}")
_SSSP = dict(
    name="sssp", label="SSSP-Δ", result="dist", start="source",
    weighted=True, oracle=lambda ref, g, s, b: ref.sssp_reference(g, s),
    compare=np.allclose,
    summary=lambda r, g, s: f"{r.epochs} epochs from {s}")
_BC = dict(
    name="bc", label="BC", result="bc", budget=("sources", 4),
    oracle=lambda ref, g, s, b:
        ref.bc_reference(g, sources=_sampled_sources(g.n, b)),
    compare=np.allclose,
    summary=lambda r, g, s:
        f"top broker {int(np.argmax(r.bc))} ({r.n_sources} sources)")
_BGC = dict(
    # a coloring has no unique answer: the oracle is the properness test
    name="coloring", label="BGC", result="colors",
    oracle=lambda ref, g, s, b: lambda c: ref.is_proper_coloring(g, c),
    compare=_holds,
    summary=lambda r, g, s:
        f"{r.n_colors} colors in {r.iterations} iterations")
_MSF = dict(
    result="total_weight", weighted=True,
    oracle=lambda ref, g, s, b: ref.mst_weight_reference(g),
    compare=np.allclose,
    summary=lambda r, g, s:
        f"{len(r.edges)} edges, weight {r.total_weight:.1f}")
_CC = dict(
    name="cc", label="CC", result="labels", aliases=("components",),
    oracle=lambda ref, g, s, b: ref.cc_reference(g), compare=np.array_equal,
    summary=lambda r, g, s:
        f"{r.n_components} components in {r.rounds} rounds")

_PUSH_PULL = ("push", "pull")
_ALG = "repro.algorithms."
_BATCHED = "repro.streams.kernels:"

#: every kernel, grouped by algorithm in Section-4 order; the matrices
#: the drivers derive from it keep this order
KERNELS: tuple[KernelSpec, ...] = (
    *_rows(_PR, "sm", "interpreted", _ALG + "pagerank:pagerank",
           ("push", "pull", "push-pa"), effect="pagerank",
           cost=("pagerank_cost", lambda it, inner, src: {"L": it})),
    *_rows(_PR, "sm", "batched", _BATCHED + "pagerank_batched", _PUSH_PULL,
           effect="pagerank"),
    *_rows(_PR, "dm", None, _ALG + "dm_pagerank:dm_pagerank",
           ("mp", "rma-push", "rma-pull"), effect="dm_pagerank",
           rounds=lambda r, d_hat: max(1, int(r.iterations))),
    *_rows(_TC, "sm", "interpreted", _ALG + "triangle:triangle_count",
           ("push", "pull", "push-pa"), effect="triangle_count",
           cost=("triangle_count_cost", lambda it, inner, src: {})),
    *_rows(_TC, "dm", None, _ALG + "dm_triangle:dm_triangle_count",
           ("rma-pull", "rma-push", "mp"), effect="dm_triangle_count",
           # one get per witness pair: a cut edge carries up to d_hat
           # neighbor fetches plus one accumulate each
           rounds=lambda r, d_hat: 1 + int(d_hat)),
    *_rows(_BFS, "sm", "interpreted", _ALG + "bfs:bfs", _PUSH_PULL,
           effect="bfs", cost=("bfs_cost", lambda it, inner, src: {"D": it})),
    *_rows(_BFS, "sm", "interpreted",
           "repro.strategies.switching:direction_optimizing_bfs",
           ("switching",), variant_kw=None),
    *_rows(_BFS, "sm", "batched", _BATCHED + "bfs_batched", _PUSH_PULL,
           effect="bfs"),
    *_rows(_BFS, "dm", None, _ALG + "dm_bfs:dm_bfs",
           ("push", "pull", "switching"), effect="dm_bfs",
           rounds=lambda r, d_hat: max(1, int(r.levels))),
    *_rows(_SSSP, "sm", "interpreted", _ALG + "sssp_delta:sssp_delta",
           _PUSH_PULL, effect="sssp_delta",
           cost=("sssp_delta_cost", lambda it, inner, src: {
               "L_over_delta": it, "l_delta": max(1.0, inner / it)})),
    *_rows(_SSSP, "sm", "batched", _BATCHED + "sssp_delta_batched",
           _PUSH_PULL, effect="sssp_delta"),
    *_rows(_SSSP, "dm", None, _ALG + "dm_sssp:dm_sssp_delta", _PUSH_PULL,
           effect="dm_sssp_delta",
           rounds=lambda r, d_hat: max(1, int(r.inner_iterations))),
    *_rows(_BC, "sm", "interpreted", _ALG + "bc:betweenness_centrality",
           _PUSH_PULL, effect="betweenness_centrality",
           cost=("bc_cost", lambda it, inner, src: {"D": it, "sources": src})),
    *_rows(_BGC, "sm", "interpreted", _ALG + "coloring:boman_coloring",
           _PUSH_PULL, effect="boman_coloring",
           cost=("boman_coloring_cost", lambda it, inner, src: {"L": it})),
    *_rows(dict(_MSF, name="mst", label="MST"), "sm", "interpreted",
           _ALG + "mst_boruvka:boruvka_mst", _PUSH_PULL, effect="boruvka_mst",
           cost=("boruvka_cost", lambda it, inner, src: {})),
    *_rows(dict(_MSF, name="prim", label="Prim"), "sm", "interpreted",
           _ALG + "mst_prim:prim_mst", _PUSH_PULL, effect="prim_mst"),
    *_rows(_CC, "sm", "interpreted",
           _ALG + "connected_components:connected_components", _PUSH_PULL,
           effect="connected_components"),
    *_rows(_CC, "sm", "batched", _BATCHED + "cc_batched", _PUSH_PULL,
           effect="connected_components"),
)


def unique(items) -> tuple:
    """The distinct items, in first-seen (table) order."""
    return tuple(dict.fromkeys(items))


def select(algorithm: str | None = None, **fields) -> tuple[KernelSpec, ...]:
    """Rows matching ``algorithm`` (any of its names) and ``fields``."""
    return tuple(s for s in KERNELS
                 if (algorithm is None or algorithm in s.names)
                 and all(getattr(s, k) == v for k, v in fields.items()))


def find(algorithm: str, runtime: str = "sm", variant: str = "push",
         engine: str = "interpreted") -> KernelSpec:
    """The row for one combination; ``ValueError`` names what is missing.

    On DM, ``push``/``pull`` name the ``rma-push``/``rma-pull`` backends
    of a kernel that has no plain ones (PageRank, triangle counting).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    rows = select(algorithm, runtime=runtime)
    if not rows:
        if not select(algorithm):
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{unique(s.name for s in KERNELS)}")
        raise ValueError(f"{algorithm} has no DM kernel; drop --dm")
    variants = unique(s.variant for s in rows)
    if variant not in variants and f"rma-{variant}" in variants:
        variant = f"rma-{variant}"
    for s in rows:
        if s.variant == variant and s.engine in (engine, None):
            return s
    if variant in variants:
        raise ValueError(
            f"variant {variant!r} has no batched kernel; the batched "
            "engine covers the plain push/pull kernels")
    raise ValueError(f"{algorithm} has no {variant!r} variant on "
                     f"{runtime.upper()}; choose from {variants}")


#: names ``repro trace`` and the bench grids take: the kernels with a
#: batched twin, whose counters the engines must agree on
TRACE_ALGORITHMS = unique(s.name for s in select(engine="batched"))

