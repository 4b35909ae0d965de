"""Chaos suite: both kernel matrices under seeded fault plans.

The fault half of ``python -m repro analyze`` (``--faults [--sm|--dm|
--all]``): every (algorithm, backend) cell of
:data:`~repro.analysis.dm_runner.DM_MATRIX` -- and, for the SM side,
every (algorithm, direction) cell of :data:`SM_MATRIX` -- runs against
a grid of seeded fault plans with recovery enabled and the matching
dynamic checker attached, asserting the three robustness contracts:

* **convergence** -- results equal the sequential references (ranks to
  1e-9; retried float accumulates legally reassociate, nothing else
  moves);
* **checker discipline** -- the :mod:`~repro.analysis.dm_race` epoch
  checker (DM) / the :mod:`~repro.analysis.race` race detector (SM)
  stays clean *during* recovery (retries and replays are re-issued as
  real ops, crashes roll state back before the rerun);
* **accounted overhead** -- a faulted run's ``rt.time`` is never below
  the fault-free baseline on the same instance, strictly above it
  whenever recovery did costly work (retries, replays, waits, restarts,
  fences), and on the SM side the tracer's counter reconciliation
  (:meth:`~repro.observability.tracer.Tracer.reconcile`) holds exactly
  under faults -- recovery work is re-accounted inside traced regions,
  recovery *waits* are counter-free stall events.

The communication-bound cross-check of ``analyze --dm`` is *not*
applied here: retransmissions intentionally exceed the lossless cut
bounds -- the overhead table is the fault-mode replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable

from repro.analysis.dm_race import attach_dm_race_detector
from repro.analysis.dm_runner import DM_MATRIX
from repro.analysis.race import attach_race_detector
from repro.analysis.runner import instance_graph
from repro.kernels import KernelSpec, find
from repro.machine.cost_model import XC30, XC40, MachineSpec
from repro.machine.memory import CountingMemory
from repro.observability import attach_tracer
from repro.runtime.dm import DMRuntime
from repro.runtime.faults import (
    FaultInjector, FaultPlan, RecoveryConfig, attach_fault_injector,
)
from repro.runtime.sm import SMRuntime
from repro.runtime.sm_faults import SMFaultPlan, attach_sm_fault_injector

#: the SM chaos cells: the SM twins of the DM matrix's kernels x
#: direction, so both runtimes face faults on the same algorithms (the
#: race matrix of ``analyze`` covers the others fault-free)
SM_MATRIX = tuple((label, ("push", "pull")) for label, _ in DM_MATRIX)

#: PageRank iterations for every chaos run (small: the suite is a grid)
_PR_ITERS = 3


def default_fault_plans(seed: int) -> list[tuple[str, FaultPlan]]:
    """The named plan grid: one plan per fault class, plus everything."""
    return [
        ("drop", FaultPlan(seed=seed, drop=0.15)),
        ("duplicate", FaultPlan(seed=seed, duplicate=0.15,
                                rma_duplicate=0.15)),
        ("delay", FaultPlan(seed=seed, delay=0.15, reorder=0.10)),
        ("rma-lost", FaultPlan(seed=seed, rma_lost=0.20)),
        ("straggler", FaultPlan(seed=seed, straggler=0.10,
                                straggler_factor=4.0)),
        ("crash", FaultPlan(seed=seed, crash=0.04)),
        ("chaos", FaultPlan(seed=seed, drop=0.10, duplicate=0.08,
                            delay=0.08, reorder=0.05, rma_lost=0.10,
                            rma_duplicate=0.08, straggler=0.05,
                            crash=0.02)),
    ]


def default_sm_fault_plans(seed: int) -> list[tuple[str, SMFaultPlan]]:
    """The SM plan grid: one plan per fault class, plus everything."""
    return [
        ("straggler", SMFaultPlan(seed=seed, straggler=0.15,
                                  straggler_factor=4.0)),
        ("preempt", SMFaultPlan(seed=seed, lock_preempt=0.20)),
        ("cas-lost", SMFaultPlan(seed=seed, cas_lost=0.15)),
        ("cas-dup", SMFaultPlan(seed=seed, cas_duplicate=0.15)),
        ("store-delay", SMFaultPlan(seed=seed, store_delay=0.10)),
        ("crash", SMFaultPlan(seed=seed, crash=0.06)),
        ("chaos", SMFaultPlan(seed=seed, straggler=0.05, lock_preempt=0.10,
                              cas_lost=0.08, cas_duplicate=0.08,
                              store_delay=0.05, crash=0.02)),
    ]


@dataclass(frozen=True)
class FaultRun:
    """One (algorithm, backend, plan, seed) chaos execution."""

    algorithm: str
    variant: str
    plan_name: str
    seed: int
    converged: bool
    clean: bool                #: epoch checker / race detector clean
    pending_unflushed: int
    fired: int                 #: fault events injected
    costly: int                #: recovery actions that must cost time
    base_time: float           #: fault-free rt.time on the same instance
    time: float                #: faulted rt.time
    races: tuple = ()
    runtime: str = "dm"        #: which runtime's matrix the cell is from
    reconciled: bool = True    #: tracer counter reconciliation (SM cells)

    @property
    def overhead(self) -> float:
        return self.time - self.base_time

    @property
    def overhead_accounted(self) -> bool:
        """No faulted run may be faster; costly recovery must be slower."""
        if self.time < self.base_time - 1e-9:
            return False
        return self.costly == 0 or self.time > self.base_time

    @property
    def ok(self) -> bool:
        return (self.converged and self.clean
                and self.pending_unflushed == 0 and self.overhead_accounted
                and self.reconciled)

    def __str__(self) -> str:
        pct = (100.0 * self.overhead / self.base_time) if self.base_time else 0.0
        status = "ok" if self.ok else "FAIL"
        detail = "" if self.ok else (
            f"  converged={self.converged} clean={self.clean} "
            f"unflushed={self.pending_unflushed} "
            f"accounted={self.overhead_accounted} "
            f"reconciled={self.reconciled}")
        return (f"{self.runtime:3s} {self.algorithm:7s} {self.variant:9s} "
                f"{self.plan_name:12s} seed={self.seed:<3d} {status:4s} "
                f"fired={self.fired:4d} overhead={pct:7.1f}%{detail}")


def _run(spec: KernelSpec, g, P: int, machine: MachineSpec,
         plan: FaultPlan | None,
         recovery: RecoveryConfig | None) -> tuple:
    """One kernel execution; returns (result, rt, detector, injector)."""
    rt = DMRuntime(g.n, P, machine=machine.scaled(64))
    detector = attach_dm_race_detector(rt)
    injector: FaultInjector | None = None
    if plan is not None:
        injector = attach_fault_injector(rt, plan, recovery=recovery)
    return spec.run(g, rt, budget=_PR_ITERS), rt, detector, injector


def analyze_faults(n: int = 64, P: int = 4, seed: int = 7,
                   d_bar: float = 4.0, dataset: str = "er",
                   fault_seeds: Iterable[int] = (0, 1),
                   plans: Iterable[tuple[str, FaultPlan]] | None = None,
                   machine: MachineSpec = XC40,
                   recovery: RecoveryConfig | None = None,
                   progress: Callable[[str], None] | None = None
                   ) -> list[FaultRun]:
    """Run the chaos grid; one :class:`FaultRun` per cell x plan x seed.

    ``fault_seeds`` re-seed the *plans* (the instance stays fixed), so
    every plan's fault schedule is sampled more than once.  ``plans``
    defaults to :func:`default_fault_plans`; ``recovery`` defaults to
    everything enabled.  ``dataset`` follows
    :func:`repro.analysis.runner.instance_graph` (``"er"``/``"rmat"``/
    ``"road"``/``"comm"``); ``"comm"`` puts most traffic on the cut,
    so dropped/duplicated messages hit the widest exchanges.
    """
    recovery = recovery if recovery is not None else RecoveryConfig()
    plain = instance_graph(dataset, n, d_bar, seed, weighted=False)
    weighted = instance_graph(dataset, n, d_bar, seed, weighted=True)
    runs: list[FaultRun] = []
    for algorithm, variants in DM_MATRIX:
        specs = [find(algorithm, runtime="dm", variant=v) for v in variants]
        g = weighted if specs[0].weighted else plain
        ref = specs[0].reference(g, budget=_PR_ITERS)
        for spec in specs:
            variant = spec.variant
            base_result, base_rt, base_det, _ = _run(
                spec, g, P, machine, None, None)
            if not (spec.agrees(base_result, ref)
                    and base_det.report().clean):
                raise AssertionError(
                    f"fault-free baseline broken: {algorithm}/{variant}")
            for fseed in fault_seeds:
                for plan_name, proto in (plans if plans is not None
                                         else default_fault_plans(fseed)):
                    plan = (proto if proto.seed == fseed
                            else replace(proto, seed=fseed))
                    result, rt, det, inj = _run(
                        spec, g, P, machine, plan, recovery)
                    report = det.report()
                    run = FaultRun(
                        algorithm=algorithm, variant=variant,
                        plan_name=plan_name, seed=fseed,
                        converged=spec.agrees(result, ref),
                        clean=report.clean,
                        pending_unflushed=det.pending_unflushed,
                        fired=inj.stats.fired(), costly=inj.stats.costly(),
                        base_time=base_rt.time, time=rt.time,
                        races=tuple(str(r) for r in report.races[:4]))
                    runs.append(run)
                    if progress is not None:
                        progress(str(run))
    return runs


def _sm_run(spec: KernelSpec, g, P: int, machine: MachineSpec,
            plan: SMFaultPlan | None,
            recovery: RecoveryConfig | None) -> tuple:
    """One SM kernel execution; returns (result, rt, detector, injector,
    tracer)."""
    m = machine.scaled(64)
    rt = SMRuntime(g, P=P, machine=m, memory=CountingMemory(m.hierarchy))
    detector = attach_race_detector(rt)
    tracer = attach_tracer(rt)
    injector = None
    if plan is not None:
        # injector after the detector: the perturbing proxy wraps the
        # detecting one, so re-issued recovery ops are race-checked too
        injector = attach_sm_fault_injector(rt, plan, recovery=recovery)
    result = spec.run(g, rt, budget=_PR_ITERS)
    return result, rt, detector, injector, tracer


def _reconciled(tracer) -> bool:
    traced, actual = tracer.reconcile()
    return traced.to_dict() == actual.to_dict()


def analyze_sm_faults(n: int = 64, P: int = 4, seed: int = 7,
                      d_bar: float = 4.0, dataset: str = "er",
                      fault_seeds: Iterable[int] = (0, 1),
                      plans: Iterable[tuple[str, SMFaultPlan]] | None = None,
                      machine: MachineSpec = XC30,
                      recovery: RecoveryConfig | None = None,
                      progress: Callable[[str], None] | None = None
                      ) -> list[FaultRun]:
    """Run the SM chaos grid; mirrors :func:`analyze_faults`.

    Each cell runs with the race detector, the tracer, *and* the
    injector attached, so one execution gates all four contracts:
    convergence to the reference, race cleanliness under recovery,
    overhead accounting against the fault-free twin, and exact counter
    reconciliation (recovery stalls are counter-free by construction).
    """
    recovery = recovery if recovery is not None else RecoveryConfig()
    plain = instance_graph(dataset, n, d_bar, seed, weighted=False)
    weighted = instance_graph(dataset, n, d_bar, seed, weighted=True)
    runs: list[FaultRun] = []
    for algorithm, directions in SM_MATRIX:
        specs = [find(algorithm, variant=d) for d in directions]
        g = weighted if specs[0].weighted else plain
        ref = specs[0].reference(g, budget=_PR_ITERS)
        for spec in specs:
            direction = spec.variant
            base_result, base_rt, base_det, _, base_tr = _sm_run(
                spec, g, P, machine, None, None)
            if not (spec.agrees(base_result, ref)
                    and base_det.report().clean and _reconciled(base_tr)):
                raise AssertionError(
                    f"fault-free baseline broken: sm {algorithm}/{direction}")
            for fseed in fault_seeds:
                for plan_name, proto in (plans if plans is not None
                                         else default_sm_fault_plans(fseed)):
                    plan = (proto if proto.seed == fseed
                            else replace(proto, seed=fseed))
                    result, rt, det, inj, tr = _sm_run(
                        spec, g, P, machine, plan, recovery)
                    report = det.report()
                    run = FaultRun(
                        algorithm=algorithm, variant=direction,
                        plan_name=plan_name, seed=fseed,
                        converged=spec.agrees(result, ref),
                        clean=report.clean,
                        pending_unflushed=0,
                        fired=inj.stats.fired(), costly=inj.stats.costly(),
                        base_time=base_rt.time, time=rt.time,
                        races=tuple(str(r) for r in report.races[:4]),
                        runtime="sm", reconciled=_reconciled(tr))
                    runs.append(run)
                    if progress is not None:
                        progress(str(run))
    return runs


def overhead_table(runs: list[FaultRun]) -> list[dict]:
    """Mean relative overhead per (runtime, algorithm, backend, plan) --
    the Table-style fault-overhead curves of the chaos suite."""
    rows: dict[tuple, list[float]] = {}
    for r in runs:
        if r.base_time > 0:
            rows.setdefault((r.runtime, r.algorithm, r.variant, r.plan_name),
                            []).append(r.overhead / r.base_time)
    return [
        {"runtime": rtm, "algorithm": a, "variant": v, "plan": p,
         "overhead_pct": round(100.0 * sum(vals) / len(vals), 1)}
        for (rtm, a, v, p), vals in rows.items()
    ]


def _table_layout(runs: list[FaultRun]) -> list[tuple[str, list, list]]:
    """Per-runtime (runtime, row keys, plan columns), in run order --
    derived from the runs themselves so DM and SM grids (different plan
    vocabularies) each get their own correctly-labeled block."""
    blocks: dict[str, tuple[list, list]] = {}
    for r in runs:
        rows, plans = blocks.setdefault(r.runtime, ([], []))
        if (r.algorithm, r.variant) not in rows:
            rows.append((r.algorithm, r.variant))
        if r.plan_name not in plans:
            plans.append(r.plan_name)
    return [(rtm, rows, plans) for rtm, (rows, plans) in blocks.items()]


def format_overhead_table(runs: list[FaultRun]) -> str:
    table = {(row["runtime"], row["algorithm"], row["variant"], row["plan"]):
             row["overhead_pct"] for row in overhead_table(runs)}
    lines = []
    for rtm, rows, plans in _table_layout(runs):
        lines.append(f"{rtm} fault overhead (mean % of fault-free time):")
        lines.append(f"{'kernel':9s}{'backend':11s}"
                     + "".join(f"{name:>12s}" for name in plans))
        for algorithm, variant in rows:
            cells = "".join(
                f"{table.get((rtm, algorithm, variant, name), 0.0):>11.1f}%"
                for name in plans)
            lines.append(f"{algorithm:9s}{variant:11s}" + cells)
    return "\n".join(lines)


def markdown_overhead_table(runs: list[FaultRun]) -> str:
    """The same overhead curves as GitHub-flavored markdown (the CI
    step-summary rendering of the combined SM+DM chaos grid)."""
    table = {(row["runtime"], row["algorithm"], row["variant"], row["plan"]):
             row["overhead_pct"] for row in overhead_table(runs)}
    lines = []
    for rtm, rows, plans in _table_layout(runs):
        lines.append(f"### {rtm.upper()} fault overhead "
                     "(mean % of fault-free time)")
        lines.append("")
        lines.append("| kernel | backend | " + " | ".join(plans) + " |")
        lines.append("|---|---|" + "---|" * len(plans))
        for algorithm, variant in rows:
            cells = " | ".join(
                f"{table.get((rtm, algorithm, variant, name), 0.0):.1f}%"
                for name in plans)
            lines.append(f"| {algorithm} | {variant} | {cells} |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
