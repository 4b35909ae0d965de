"""Drive the seven paper algorithms under the race detector.

This is the dynamic half of ``python -m repro analyze``: every
algorithm runs in both directions on a small deterministic instance
with a :class:`~repro.analysis.race.RaceDetectingMemory` attached, and
each run's conflict statistics are cross-checked against its Section-4
PRAM bound.  The same entry points back the opt-in pytest fixture, so
a kernel regression that introduces an undeclared remote write fails
both the CLI gate and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.crosscheck import CrossCheckResult, crosscheck
from repro.analysis.race import RaceReport, attach_race_detector
from repro.generators import community_graph, erdos_renyi, rmat, road_network
from repro.graph.csr import CSRGraph
from repro.kernels import find, select, unique
from repro.machine.cost_model import XC30, MachineSpec
from repro.machine.memory import CountingMemory
from repro.runtime.sm import SMRuntime

#: the SM kernels with a Section-4 PRAM bound to cross-check against --
#: the seven instrumented algorithms of the paper, in Section-4 order
ALGORITHMS = unique(
    s.label for s in select(runtime="sm", engine="interpreted") if s.cost)


@dataclass(frozen=True)
class AnalysisRun:
    """One (algorithm, direction) execution under the detector."""

    algorithm: str
    direction: str
    report: RaceReport
    check: CrossCheckResult
    iterations: int

    @property
    def ok(self) -> bool:
        return self.report.clean and self.check.ok

    def __str__(self) -> str:
        status = "clean" if self.report.clean else \
            f"{len(self.report.races)} RACE(S)"
        return (f"{self.algorithm:7s} {self.direction:5s}  {status:12s} "
                f"epochs={self.report.epochs:4d}  "
                f"Wconf={self.report.write_conflicts + self.report.atomic_conflicts:7d}  "
                f"Rconf={self.report.read_conflicts:7d}  "
                f"bound={'ok' if self.check.ok else 'FAIL'}")


def run_one(algorithm: str, g: CSRGraph, direction: str, P: int = 4,
            machine: MachineSpec = XC30,
            track_read_conflicts: bool = True):
    """Run one (algorithm, direction) under a fresh detector.

    Returns ``(report, result)``.
    """
    m = machine.scaled(64)
    rt = SMRuntime(g, P=P, machine=m, memory=CountingMemory(m.hierarchy))
    detector = attach_race_detector(
        rt, track_read_conflicts=track_read_conflicts)
    result = find(algorithm, variant=direction).run(g, rt)
    return detector.report(), result


def _bound_params(result) -> dict:
    """The instance parameters the Section-4 bounds take, read off a run:
    rounds (Δ-Stepping's epochs), inner iterations, BC's source count."""
    it = max(1, int(getattr(result, "iterations", 1) or 1))
    return {"iterations": max(1, int(getattr(result, "epochs", it))),
            "inner_iterations": max(
                1, int(getattr(result, "inner_iterations", it))),
            "sources": max(1, int(getattr(result, "n_sources", it)))}


def instance_graph(dataset: str, n: int, d_bar: float, seed: int,
                   weighted: bool) -> CSRGraph:
    """Build the analysis instance for ``dataset`` at roughly ``n`` vertices.

    ``"er"`` is Erdős–Rényi at exactly ``n``; ``"rmat"`` rounds up to the
    nearest power of two (skewed degrees); ``"road"`` is the sparsified
    lattice at ``ceil(sqrt(n))²`` vertices -- the high-diameter extreme
    of Table 2, where traversal kernels run many thin supersteps;
    ``"comm"`` is the Chung-Lu community graph with planted hubs -- the
    communication-heavy extreme, where cross-partition edges dominate
    and push variants hammer remote accumulators.
    """
    import math
    if dataset == "er":
        return erdos_renyi(n, d_bar=d_bar, seed=seed, weighted=weighted)
    if dataset == "rmat":
        scale = max(4, math.ceil(math.log2(max(n, 2))))
        return rmat(scale, d_bar=d_bar, seed=seed, weighted=weighted)
    if dataset == "road":
        side = max(3, math.ceil(math.sqrt(max(n, 1))))
        return road_network(side, side, seed=seed, weighted=weighted)
    if dataset == "comm":
        return community_graph(max(n, 16), d_bar=max(d_bar, 8.0), seed=seed,
                               weighted=weighted)
    raise ValueError(
        f"unknown dataset {dataset!r}; choose 'er', 'rmat', 'road', "
        "or 'comm'")


def analyze_algorithms(n: int = 120, P: int = 4, seed: int = 7,
                       d_bar: float = 4.0, slack: float = 4.0,
                       algorithms: Iterable[str] | None = None,
                       directions: Iterable[str] = ("push", "pull"),
                       machine: MachineSpec = XC30,
                       dataset: str = "er",
                       progress: Callable[[str], None] | None = None
                       ) -> list[AnalysisRun]:
    """Run the full matrix; returns one :class:`AnalysisRun` per cell.

    ``dataset`` selects the instance family: ``"er"`` (Erdős–Rényi, the
    default), ``"rmat"`` (the registry Kronecker/R-MAT generator at
    ``scale = ceil(log2 n)`` -- skewed degrees at a small scale),
    ``"road"`` (sparsified lattice -- the high-diameter regime), or
    ``"comm"`` (Chung-Lu community graph -- the communication-heavy
    regime of cross-partition hub edges).
    """
    algos = tuple(algorithms) if algorithms else ALGORITHMS
    unknown = set(algos) - set(ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithm(s) {sorted(unknown)}; "
                         f"choose from {ALGORITHMS}")
    plain = instance_graph(dataset, n, d_bar, seed, weighted=False)
    weighted = instance_graph(dataset, n, d_bar, seed, weighted=True)

    runs: list[AnalysisRun] = []
    for algorithm in algos:
        g = weighted if find(algorithm).weighted else plain
        for direction in directions:
            report, result = run_one(algorithm, g, direction, P=P,
                                     machine=machine)
            check = crosscheck(
                algorithm, direction, report,
                n=g.n, m=g.m, d_hat=g.max_degree, P=P, slack=slack,
                **_bound_params(result))
            run = AnalysisRun(
                algorithm=algorithm, direction=direction, report=report,
                check=check,
                iterations=int(getattr(result, "iterations", 1) or 1))
            runs.append(run)
            if progress is not None:
                progress(str(run))
    return runs
