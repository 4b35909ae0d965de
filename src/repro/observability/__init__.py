"""Unified trace/metrics layer for the SM and DM runtimes.

The paper's performance study attributes cost to *phases* -- per-phase
PAPI counter tables (Table 1), per-iteration direction decisions, and
per-superstep communication volumes.  This package gives the simulated
runtimes the same attribution surface:

* :mod:`repro.observability.events` -- the typed event model and the
  versioned JSONL schema.
* :mod:`repro.observability.tracer` -- :class:`Tracer`, attached to an
  :class:`~repro.runtime.sm.SMRuntime` or
  :class:`~repro.runtime.dm.DMRuntime` via the ``rt.tracer`` hook (a
  single ``is None`` check per hook site, like ``rt.observer`` and
  ``rt.faults``); records parallel regions and supersteps with
  per-thread/per-rank spans and :class:`PerfCounters` deltas, barriers
  and recovery stalls, frontier evolution, push/pull switch decisions
  with their operands, DM communication verbs, and fault/recovery
  events.
* :mod:`repro.observability.export` -- exporters: Chrome trace-event
  JSON (``chrome://tracing`` / Perfetto, one lane per thread or rank),
  a flat JSONL event log, and a metrics rollup (counter time-series per
  region/superstep, per-phase Table-1 cache columns, partition
  edge-cut, per-rank-pair traffic matrix, critical-path decomposition,
  switch decisions; schema ``repro-metrics/3``).
* :mod:`repro.observability.hwcounters` -- cache-counter attribution:
  :func:`equip_cache_sim` swaps the trace-driven cache/TLB simulator
  into a runtime so every span delta carries L1/L2/L3/TLB miss counts;
  :func:`miss_asymmetry` quantifies the paper's push-vs-pull locality
  gap.
* :mod:`repro.observability.flame` -- deterministic folded-stack
  flamegraph export (lane -> phase over simulated time; feeds
  ``flamegraph.pl`` / speedscope).
* :mod:`repro.observability.sinks` -- pluggable event sinks: buffered
  retention (the default), constant-memory streaming JSONL, the
  bounded-memory metrics rollup (the one implementation of every
  derived view; a buffered run replays its events through it), and
  seeded span sampling for Chrome/flame export at scales where full
  retention is impossible.
* :mod:`repro.observability.regress` -- semantic perf-baseline diffing
  (``repro bench diff``): metric-by-metric comparison with tolerances,
  drift attributed to cell -> phase -> counter.
* :mod:`repro.observability.history` -- the append-only bench-history
  timeline (``repro bench history``): ``repro-bench/*`` snapshots on a
  JSONL timeline with per-cell trend tables and regression flags.
* :mod:`repro.observability.speedup` -- comparative analysis
  (``repro bench speedup``): config-vs-config winner-by-factor tables
  (the shape of the paper's Figures 5-9) with per-counter attribution
  of why the winner wins (schema ``repro-speedup/1``).
* :mod:`repro.observability.driver` -- the ``python -m repro trace``
  entry point: run one kernel under a tracer and write all exports.

The package is import-light by design: nothing here imports the
harness (charts, experiments).
"""

from repro.observability.events import SCHEMA, TraceEvent
from repro.observability.export import (
    METRICS_SCHEMA, chrome_trace, critical_path, metrics_rollup,
    to_jsonl_lines, traffic_matrix, write_outputs,
)
from repro.observability.flame import folded_stacks, write_flame
from repro.observability.hwcounters import (
    equip_cache_sim, miss_asymmetry, miss_rates,
)
from repro.observability.history import (
    HISTORY_SCHEMA, load_history, render_trend, snapshot_from_doc,
)
from repro.observability.regress import (
    BENCHDIFF_SCHEMA, BenchDiff, BenchDiffError, Drift, diff_bench,
    diff_paths, load_baseline,
)
from repro.observability.sinks import (
    BufferSink, JsonlStreamSink, RollupSink, SamplingSink, TraceSink,
)
from repro.observability.speedup import SPEEDUP_SCHEMA, build_speedup
from repro.observability.tracer import (
    Tracer, WallclockProfiler, attach_tracer, edge_cut,
)

__all__ = [
    "BENCHDIFF_SCHEMA",
    "BenchDiff",
    "BenchDiffError",
    "BufferSink",
    "Drift",
    "HISTORY_SCHEMA",
    "JsonlStreamSink",
    "METRICS_SCHEMA",
    "RollupSink",
    "SCHEMA",
    "SPEEDUP_SCHEMA",
    "SamplingSink",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "WallclockProfiler",
    "attach_tracer",
    "build_speedup",
    "chrome_trace",
    "critical_path",
    "diff_bench",
    "diff_paths",
    "edge_cut",
    "equip_cache_sim",
    "folded_stacks",
    "load_baseline",
    "load_history",
    "metrics_rollup",
    "miss_asymmetry",
    "miss_rates",
    "render_trend",
    "snapshot_from_doc",
    "to_jsonl_lines",
    "traffic_matrix",
    "write_flame",
    "write_outputs",
]
