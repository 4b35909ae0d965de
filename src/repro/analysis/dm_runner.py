"""Drive the four DM kernels under the epoch checker.

The distributed-memory half of ``python -m repro analyze``: every
``dm_*`` kernel runs in each of its backends on a small deterministic
instance with a :class:`~repro.analysis.dm_race.DMRaceDetector`
attached, and each run's communication counters are cross-checked
against the cut-based bound of
:func:`~repro.analysis.crosscheck.dm_crosscheck`.  The entry point
backs both the CLI gate and the test suite, mirroring
:mod:`repro.analysis.runner` for shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.crosscheck import DMCommCheckResult, dm_crosscheck
from repro.analysis.dm_race import attach_dm_race_detector
from repro.analysis.race import RaceReport
from repro.graph.csr import CSRGraph
from repro.graph.partition_strategies import edge_cut
from repro.kernels import find, select, unique
from repro.machine.cost_model import XC40, MachineSpec
from repro.runtime.dm import DMRuntime

#: (algorithm, tuple of backend variants) in Section 6.3 order
DM_MATRIX = tuple(
    (label, tuple(s.variant for s in select(label, runtime="dm")))
    for label in unique(s.label for s in select(runtime="dm")))

#: round budget of every DM cell (PageRank's iteration count)
_BUDGET = 3


@dataclass(frozen=True)
class DMAnalysisRun:
    """One (algorithm, backend variant) execution under the checker."""

    algorithm: str
    variant: str
    report: RaceReport
    check: DMCommCheckResult
    pending_unflushed: int
    unattributed_ops: int

    @property
    def ok(self) -> bool:
        return (self.report.clean and self.check.ok
                and self.pending_unflushed == 0)

    def __str__(self) -> str:
        status = "clean" if self.report.clean else \
            f"{len(self.report.races)} RACE(S)"
        extra = ""
        if self.pending_unflushed:
            extra = f"  UNFLUSHED={self.pending_unflushed}"
        return (f"{self.algorithm:7s} {self.variant:9s}  {status:12s} "
                f"epochs={self.report.epochs:4d}  "
                f"rma={self.check.observed_remote:6d}  "
                f"msg={self.check.observed_messages:6d}  "
                f"bound={'ok' if self.check.ok else 'FAIL'}{extra}")


def run_one_dm(algorithm: str, g: CSRGraph, variant: str, P: int = 4,
               machine: MachineSpec = XC40, slack: float = 4.0,
               raise_on_race: bool = False) -> DMAnalysisRun:
    """Run one (algorithm, variant) under a fresh epoch checker."""
    rt = DMRuntime(g.n, P, machine=machine.scaled(64))
    detector = attach_dm_race_detector(rt, raise_on_race=raise_on_race)
    spec = find(algorithm, runtime="dm", variant=variant)
    result = spec.run(g, rt, budget=_BUDGET)
    report = detector.report()
    check = dm_crosscheck(
        algorithm, variant, result.counters,
        m_cross=edge_cut(g, rt.part), P=P,
        supersteps=max(1, report.epochs),
        rounds=spec.rounds(result, g.max_degree), slack=slack)
    return DMAnalysisRun(
        algorithm=algorithm, variant=variant, report=report, check=check,
        pending_unflushed=detector.pending_unflushed,
        unattributed_ops=detector.unattributed_ops)


def analyze_dm(n: int = 96, P: int = 4, seed: int = 7, d_bar: float = 4.0,
               slack: float = 4.0, dataset: str = "er",
               progress: Callable[[str], None] | None = None
               ) -> list[DMAnalysisRun]:
    """Run the DM matrix; returns one :class:`DMAnalysisRun` per cell.

    ``dataset`` follows :func:`repro.analysis.runner.instance_graph`:
    ``"er"`` (default), ``"rmat"``, ``"road"`` (the high-diameter
    regime -- many thin supersteps, so the epoch and cut bounds are
    exercised across far more barriers per run), or ``"comm"`` (the
    communication-heavy regime -- planted hubs push most edges across
    the partition cut, stressing the message/RMA epoch checks).
    """
    from repro.analysis.runner import instance_graph
    plain = instance_graph(dataset, n, d_bar, seed, weighted=False)
    weighted = instance_graph(dataset, n, d_bar, seed, weighted=True)
    runs: list[DMAnalysisRun] = []
    for algorithm, variants in DM_MATRIX:
        g = weighted if find(algorithm, runtime="dm").weighted else plain
        for variant in variants:
            run = run_one_dm(algorithm, g, variant, P=P, slack=slack)
            runs.append(run)
            if progress is not None:
                progress(str(run))
    return runs
