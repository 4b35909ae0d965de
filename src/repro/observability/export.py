"""Exporters for recorded traces.

Two span views walk the retained event list, both deterministic
(simulated timestamps, sorted JSON keys, compact separators -- two runs
with the same seed/config produce byte-identical files):

* :func:`to_jsonl_lines` -- flat JSONL: a ``{"schema": ...}`` header
  line, then one event object per line (the archival format; schema
  ``repro-trace/1``).
* :func:`chrome_trace` -- Chrome trace-event JSON for
  ``chrome://tracing`` / Perfetto: one lane (tid) per simulated thread
  or rank plus a ``runtime`` lane for global events; regions and
  supersteps become matched ``B``/``E`` duration pairs, communication
  and fault events become instants on the issuing rank's lane, frontier
  sizes become a counter track.  1 mtu is rendered as 1 µs.

The derived views -- :func:`metrics_rollup` (schema
``repro-metrics/3``), :func:`traffic_matrix` and :func:`critical_path`
-- are not computed here.  Each delegates to the tracer's
:class:`~repro.observability.sinks.RollupSink` (:meth:`Tracer._rollup`):
the attached one when the run had a rollup sink, else one cached fold
of the buffered events through a fresh ``RollupSink``.  Post-hoc and
online metrics are therefore the same code over the same event order;
see :class:`~repro.observability.sinks.RollupSink` for the semantics of
each view.

All exporters emit valid, schema-complete documents for *empty* traces
(a tracer that recorded nothing) and for zero-duration spans (regions
whose lanes did no costed work): every top-level key is present, idle
zero-span lanes are dropped from the Chrome view instead of emitting
empty boxes, and no derived rate divides by zero.

:func:`write_outputs` writes the views into a directory (plus the
folded-stack flamegraph when asked).
"""

from __future__ import annotations

import os

from repro.observability.events import SCHEMA
from repro.observability.sinks import (
    COMM_COUNTERS, METRICS_SCHEMA, TRAFFIC_FIELDS, BufferSink,
    JsonlStreamSink, SamplingSink, _dumps,
)

#: event kinds rendered as B/E duration pairs on the runtime lane
_GLOBAL_SPANS = ("barrier", "stall")

#: event kinds rendered as instants on their lane
_INSTANTS = ("send", "inbox", "rma", "flush", "fault", "recovery",
             "switch", "schedule")


def to_jsonl_lines(tracer) -> list[str]:
    """Header line + one compact JSON object per event."""
    return [_dumps(tracer.meta())] + [_dumps(ev.to_dict())
                                      for ev in tracer.events]


def chrome_trace(tracer) -> dict:
    """Chrome trace-event JSON (loadable in Perfetto).

    Lanes: tid ``0..P-1`` are the simulated threads/ranks, tid ``P`` is
    the ``runtime`` lane (barriers, stalls, switch/schedule decisions,
    unattributable fault events).  Every duration event is an explicit
    ``B``/``E`` pair with ``E.ts >= B.ts`` on the same lane.
    """
    P = tracer.rt.P
    meta = tracer.meta()
    lane_noun = "rank" if tracer.is_dm else "thread"
    out = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": f"repro {meta['runtime']} ({meta['machine']})"}},
    ]
    for t in range(P):
        out.append({"ph": "M", "pid": 0, "tid": t, "name": "thread_name",
                    "args": {"name": f"{lane_noun} {t}"}})
    out.append({"ph": "M", "pid": 0, "tid": P, "name": "thread_name",
                "args": {"name": "runtime"}})

    def span(name, ts, dur, tid, args=None):
        out.append({"ph": "B", "pid": 0, "tid": tid, "ts": ts,
                    "name": name, "args": args or {}})
        out.append({"ph": "E", "pid": 0, "tid": tid, "ts": ts + dur,
                    "name": name})

    for ev in tracer.events:
        if ev.kind in ("region", "superstep"):
            spans = ev.data["spans"]
            deltas = ev.data["deltas"]
            sizes = ev.data.get("sizes")
            for t, s in enumerate(spans):
                args = {"delta": deltas[t]} if t < len(deltas) else {}
                if sizes is not None and t < len(sizes):
                    args["items"] = sizes[t]
                if s == 0.0 and not args.get("delta") and not args.get("items"):
                    # an idle lane (e.g. in a sequential region): a
                    # zero-duration empty box is degenerate, skip it
                    continue
                span(ev.label, ev.ts, s, t, args)
            span(ev.label, ev.ts, ev.dur, P,
                 {"index": ev.data["index"], "kind": ev.kind})
        elif ev.kind in _GLOBAL_SPANS:
            span(ev.label, ev.ts, ev.dur, P, dict(ev.data))
        elif ev.kind == "frontier":
            out.append({"ph": "C", "pid": 0, "tid": P, "ts": ev.ts,
                        "name": "frontier-size",
                        "args": {"size": ev.data["size"]}})
        elif ev.kind in _INSTANTS:
            tid = ev.lane if ev.lane is not None else P
            name = ev.label if ev.kind in ("switch", "schedule") \
                else f"{ev.kind}:{ev.label}"
            out.append({"ph": "i", "s": "t", "pid": 0, "tid": tid,
                        "ts": ev.ts, "name": name, "args": dict(ev.data)})
    return {"displayTimeUnit": "ms", "traceEvents": out,
            "otherData": meta}


def metrics_rollup(tracer) -> dict:
    """The ``repro-metrics/3`` document (:meth:`RollupSink.rollup`)."""
    return tracer._rollup().rollup()


def traffic_matrix(tracer) -> dict:
    """Per-rank-pair DM traffic (:meth:`RollupSink.traffic`)."""
    return tracer._rollup().traffic()


def critical_path(tracer) -> dict:
    """Critical-path decomposition (:meth:`RollupSink.critical`)."""
    return tracer._rollup().critical()


def write_outputs(tracer, outdir: str, flame: bool = False) -> dict:
    """Write whatever views the tracer's sinks can back.

    A buffered tracer (the default) writes ``events.jsonl``,
    ``trace.json`` and ``metrics.json``.  With bounded-memory sinks
    instead, each export comes from the sink that can answer it: a
    :class:`~repro.observability.sinks.JsonlStreamSink` already
    streamed ``events.jsonl`` (it is closed here and its path
    returned), a :class:`~repro.observability.sinks.SamplingSink`
    renders the Chrome/flame span views from its retained sample, and
    ``metrics.json`` comes from :meth:`Tracer._rollup` whenever a
    buffer or a rollup backs it.  Views no attached sink can back are
    skipped rather than failed.  With ``flame=True`` also writes the
    folded-stack flamegraph ``flame.folded``.  Returns the
    ``{view: path}`` map of what was written.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    stream = tracer.find_sink(JsonlStreamSink)
    if stream is not None:
        stream.close()
        paths["jsonl"] = stream.path
    buffered = tracer.find_sink(BufferSink) is not None
    if buffered and "jsonl" not in paths:
        paths["jsonl"] = os.path.join(outdir, "events.jsonl")
        with open(paths["jsonl"], "w") as fh:
            fh.write("\n".join(to_jsonl_lines(tracer)) + "\n")
    sampler = tracer.find_sink(SamplingSink)
    spans = tracer if buffered else (sampler.view() if sampler else None)
    if spans is not None:
        paths["chrome"] = os.path.join(outdir, "trace.json")
        with open(paths["chrome"], "w") as fh:
            fh.write(_dumps(chrome_trace(spans)) + "\n")
    if buffered or tracer._rollup_sink() is not None:
        paths["metrics"] = os.path.join(outdir, "metrics.json")
        with open(paths["metrics"], "w") as fh:
            fh.write(_dumps(metrics_rollup(tracer)) + "\n")
    if flame and spans is not None:
        from repro.observability.flame import write_flame
        paths["flame"] = write_flame(
            spans, os.path.join(outdir, "flame.folded"))
    return paths


__all__ = ["COMM_COUNTERS", "METRICS_SCHEMA", "SCHEMA", "TRAFFIC_FIELDS",
           "chrome_trace", "critical_path", "metrics_rollup",
           "to_jsonl_lines", "traffic_matrix", "write_outputs"]
