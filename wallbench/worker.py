"""One benchmark pass in a fresh process.

    PYTHONPATH=src python3 wallbench/worker.py --workload cachesim \
        --seed 7 --check 1 --trace 0 --out .wallbench/out

Imports the program, builds the workload's graphs, runs its cells and
prints one JSON object on the last line of standard output: the pass's
end-to-end timings, each cell's digests and problems, and with
``--trace 1`` the per-layer metrics of the span recorder, whose spans
it also writes to ``<out>/spans.json``.  ``run.py`` starts one of these
per pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads
from spans import SpanRecorder, install_layers


def _total(cells: list, key: str) -> float:
    return sum(c.get(key, 0) for c in cells)


def layer_metrics(rec: SpanRecorder, import_s: float, cells: list) -> dict:
    """The per-layer metrics of one traced pass (``bench.*`` excepted:
    those need the untraced twin and are added by ``run.py``)."""
    cache = {k: sum(c.get("cache", {}).get(k, 0) for c in cells)
             for k in ("line_accesses", "l1_misses", "l2_misses",
                       "l3_misses", "tlb_misses")}
    dm = {k: sum(c.get("dm", {}).get(k, 0) for c in cells)
          for k in ("supersteps", "messages", "msg_bytes", "remote_ops")}
    lines = cache["line_accesses"]
    return {
        "import.s": import_s,
        "generators.s": rec.self_s("generators"),
        "graph.from_edges.s": rec.self_s("graph.from_edges"),
        "graph.from_edges.arcs_in": rec.counts.get(
            "graph.from_edges.arcs_in", 0),
        "graph.from_edges.arcs_out": rec.counts.get(
            "graph.from_edges.arcs_out", 0),
        "runtime.setup.s": rec.self_s("runtime.setup"),
        "streams.kernel.s": rec.self_s("streams.kernel"),
        "streams.replay.s": rec.self_s("streams.replay"),
        "streams.replay.calls": rec.calls("streams.replay"),
        "algorithms.kernel.s": rec.self_s("algorithms.kernel"),
        "machine.memory.s": rec.self_s("machine.memory"),
        "machine.memory.calls": rec.calls("machine.memory"),
        "machine.memory.events": _total(cells, "events"),
        "machine.cache.s": rec.self_s("machine.cache"),
        "machine.cache.calls": rec.calls("machine.cache"),
        "machine.cache.line_accesses": lines,
        "machine.cache.l1_hit_ratio":
            1.0 - cache["l1_misses"] / lines if lines else 0.0,
        "machine.cache.l1_misses": cache["l1_misses"],
        "machine.cache.l2_misses": cache["l2_misses"],
        "machine.cache.l3_misses": cache["l3_misses"],
        "machine.cache.tlb_misses": cache["tlb_misses"],
        "runtime.dm.supersteps": dm["supersteps"],
        "runtime.dm.messages": dm["messages"],
        "runtime.dm.msg_bytes": dm["msg_bytes"],
        "runtime.dm.remote_ops": dm["remote_ops"],
        "observability.tracer.events": _total(cells, "tracer_events"),
        "observability.sink.peak_bytes": max(
            [c.get("sink_peak_bytes", 0) for c in cells], default=0),
        "observability.export.s": rec.self_s("observability.export"),
    }


def run_worker(workload_name: str, seed: int, check: bool, trace: bool,
               outdir: str) -> dict:
    """Import, (optionally) wrap the layers, run one pass; returns the
    pass summary."""
    import_s = workloads.import_program()
    t0 = time.perf_counter()
    rec = restore = None
    if trace:
        rec = SpanRecorder()
        restore = install_layers(rec)
    install_s = time.perf_counter() - t0
    try:
        p = workloads.run_pass(workloads.WORKLOADS[workload_name], seed,
                               outdir, check=check, recorder=rec)
    finally:
        if restore is not None:
            restore()
    cells = p["cells"]
    summary = {
        "import_s": import_s,
        "wall_s": import_s + install_s + p["run_s"],
        "setup_s": import_s + p["build_s"] + _total(cells, "setup_s"),
        "kernel_s": _total(cells, "kernel_s"),
        "events": _total(cells, "events"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "graphs": p["graphs"],
        "cells": [{k: c.get(k) for k in ("id", "problems", "sim_digest",
                                          "result_digest")} for c in cells],
    }
    if rec is not None:
        summary["layers"] = layer_metrics(rec, import_s, cells)
        rec.dump(os.path.join(outdir, "spans.json"))
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    summary = run_worker(args.workload, args.seed, bool(args.check),
                         bool(args.trace), args.out)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
