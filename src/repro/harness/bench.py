"""The committed perf baselines (schema ``repro-bench/3``).

Two cell families derived from one sweep:

* **baseline** -- the original deterministic small-graph grid: PR /
  BFS / SSSP x push / pull x SM / DM on one seeded ER instance, each
  cell run under a tracer with the trace-driven cache simulation
  equipped (:func:`repro.observability.hwcounters.equip_cache_sim`),
  so the baseline records, per Table-1/Table-3 cell:

  - the end-to-end simulated ``time_mtu`` and nonzero counter totals,
    **including the L1/L2/L3/TLB miss columns** of the paper's Table 1;
  - the per-phase breakdown (``rt.annotate`` labels with their time and
    counter aggregates) -- the attribution surface ``repro bench diff``
    points at when a metric drifts;
  - the partition edge-cut next to the communication verb counts;
  - the critical-path decomposition (compute / comm / sync / off-path
    idle; the five on-path components sum to ``time_mtu``) and the
    traffic-matrix totals, both verified against the tracer before the
    cell is recorded -- the inputs ``repro bench speedup`` attributes
    winners with;
  - the event-kind counts (trace shape).

  The family runs under either engine (``--engine batched`` swaps in
  the stream kernels); the counters are certified byte-identical, so
  ``repro bench diff`` at zero tolerance against an
  interpreted-generated baseline is the batched engine's drift gate.

* **large** -- a 100x-scale grid (PR / BFS / SSSP / CC x push / pull,
  SM) that only the batched engine can sweep in reasonable time; it
  runs with the analytic miss model (``cache_scale=0``) and pins down
  the batched engine's behavior at a size where per-element Python
  dispatch would dominate.

Two documents are derived from one sweep: ``BENCH_trace.json`` (the
full baseline above) and ``BENCH_perf.json`` (the runtime-focused
rollup -- per-cell time plus headline counters, no phases -- the
numeric perf series future PRs diff against).  Everything is seeded
and timestamps are simulated, so two sweeps produce byte-identical
files; ``repro bench diff`` compares a fresh sweep against the
committed copies with per-metric tolerances instead of ``cmp``.
"""

from __future__ import annotations

import json
import os

from repro.kernels import TRACE_ALGORITHMS, select

#: versioned schema tag of the baseline files
BENCH_SCHEMA = "repro-bench/3"

#: the baseline-family grid: (algorithm, variant) x (sm, dm)
BENCH_ALGORITHMS = tuple(a for a in TRACE_ALGORITHMS
                         if select(a, runtime="dm"))
BENCH_VARIANTS = ("push", "pull")

#: one deterministic instance for every baseline cell
BENCH_CONFIG = {"dataset": "er", "n": 96, "P": 4, "seed": 7,
                "iterations": 5, "cache_scale": 64}

#: the large-family grid (SM only; always the batched engine)
LARGE_ALGORITHMS = TRACE_ALGORITHMS

#: 100x the baseline vertex count; analytic miss model (cache_scale=0)
LARGE_CONFIG = {"dataset": "er", "n": 9600, "P": 4, "seed": 7,
                "iterations": 5, "cache_scale": 0}

#: headline counters of the BENCH_perf.json runtime rollup
PERF_COUNTERS = (
    "reads", "writes", "atomics", "locks",
    "l1_misses", "l2_misses", "l3_misses", "tlb_d_misses",
    "messages", "msg_bytes", "collectives", "remote_gets", "remote_puts",
    "remote_acc_int", "remote_acc_float", "remote_bytes", "flushes",
    "barriers",
)


def _run_cell(algorithm: str, variant: str, runtime: str, config: dict,
              family: str, engine: str) -> dict:
    from repro.observability.driver import run_traced
    from repro.observability.export import (
        critical_path, metrics_rollup, traffic_matrix,
    )
    from repro.observability.sinks import RollupSink

    # the online rollup alone: every view below reads its accumulators,
    # and the checks compare them against the runtime's own counters
    # and clock, not against a second implementation
    rt, tracer, resolved, _ = run_traced(
        algorithm, variant=variant, dm=(runtime == "dm"),
        dataset=config["dataset"], n=config["n"],
        P=config["P"], seed=config["seed"],
        iterations=config["iterations"],
        cache_scale=config["cache_scale"], engine=engine,
        sinks=[RollupSink()])
    traced, actual = tracer.reconcile()
    if traced.to_dict() != actual.to_dict():
        raise RuntimeError(
            f"bench cell {algorithm}/{variant}/{runtime}/{family} "
            f"[{engine}]: tracer reconciliation failed")
    totals = tracer.traced_totals()
    critical = critical_path(tracer)["totals"]
    if not critical["reconciled"]:
        raise RuntimeError(
            f"bench cell {algorithm}/{variant}/{runtime}/{family} "
            f"[{engine}]: critical-path decomposition "
            f"({critical['decomposed_mtu']}) does not sum to the run "
            f"time ({critical['time_mtu']})")
    traffic = traffic_matrix(tracer)
    for field, count in traffic["totals"].items():
        if count != getattr(totals, field):
            raise RuntimeError(
                f"bench cell {algorithm}/{variant}/{runtime}/{family} "
                f"[{engine}]: traffic matrix {field}={count} does not "
                f"reconcile with the counter total "
                f"{getattr(totals, field)}")
    rollup = metrics_rollup(tracer)
    phases = [{
        "label": p["label"],
        "events": p["events"],
        "time_mtu": p["time"],
        "counters": p["counters"],
    } for p in rollup["phases"]]
    return {
        "algorithm": algorithm,
        "variant": variant,
        "resolved_variant": resolved,
        "runtime": runtime,
        "family": family,
        "engine": engine,
        "machine": getattr(rt.machine, "name", "?"),
        "time_mtu": rt.time,
        "counters": {k: v for k, v in totals.to_dict().items() if v},
        "phases": phases,
        "cut": tracer.cut,
        "critical": {k: critical[k] for k in
                     ("compute", "comm", "injected_stall", "sync",
                      "recovery_stall", "off_path_idle")},
        "traffic": {k: v for k, v in traffic["totals"].items() if v},
        "events": dict(tracer.kind_counts),
    }


def bench_sweep(engine: str = "interpreted") -> dict:
    """Run the full grid; returns the ``BENCH_trace.json`` document.

    ``engine`` selects the execution engine of the *baseline* family
    (DM cells are an exact passthrough either way); the large family
    always runs batched -- it exists to exercise the batched engine at
    a scale the interpreted kernels cannot sweep quickly.
    """
    cells = []
    for algorithm in BENCH_ALGORITHMS:
        for variant in BENCH_VARIANTS:
            for runtime in ("sm", "dm"):
                cells.append(_run_cell(algorithm, variant, runtime,
                                       BENCH_CONFIG, "baseline", engine))
    for algorithm in LARGE_ALGORITHMS:
        for variant in BENCH_VARIANTS:
            cells.append(_run_cell(algorithm, variant, "sm",
                                   LARGE_CONFIG, "large", "batched"))
    return {"schema": BENCH_SCHEMA, "kind": "trace",
            "config": {"baseline": dict(BENCH_CONFIG),
                       "large": dict(LARGE_CONFIG)},
            "cells": cells}


def perf_rollup(doc: dict) -> dict:
    """The runtime-focused ``BENCH_perf.json`` view of a sweep document."""
    cells = [{
        "algorithm": c["algorithm"],
        "variant": c["variant"],
        "resolved_variant": c["resolved_variant"],
        "runtime": c["runtime"],
        "family": c["family"],
        "machine": c["machine"],
        "time_mtu": c["time_mtu"],
        "counters": {k: c["counters"][k] for k in PERF_COUNTERS
                     if c["counters"].get(k)},
        "critical": dict(c["critical"]),
    } for c in doc["cells"]]
    return {"schema": doc["schema"], "kind": "perf",
            "config": dict(doc["config"]), "cells": cells}


def _write_json(doc: dict, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    return path


def write_bench(out: str, engine: str = "interpreted") -> dict:
    """Write both baselines; returns ``{"trace": path, "perf": path}``.

    ``out`` is the target ``.json`` file for the trace baseline (or a
    directory that receives ``BENCH_trace.json``); ``BENCH_perf.json``
    lands next to it.
    """
    path = out
    if not out.endswith(".json"):
        path = os.path.join(out, "BENCH_trace.json")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    doc = bench_sweep(engine=engine)
    perf_path = os.path.join(os.path.dirname(path) or ".", "BENCH_perf.json")
    return {"trace": _write_json(doc, path),
            "perf": _write_json(perf_rollup(doc), perf_path)}
