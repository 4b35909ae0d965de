"""Differential suite for the pluggable trace sinks.

The contract under test: the derived views (``repro-metrics/3``, the
traffic matrix, the critical path) have one implementation,
:class:`RollupSink`, reached two ways -- live dispatch to an attached
sink, or a replay of a buffered run folded once through a fresh one.
The two routes must serialize to the same bytes (including the
traffic matrix and the critical path summing to run time), the fold
must happen once per query burst and again after new events or a
reset, the streaming JSONL file equals the post-hoc export, and the
sampling sink is deterministic under a fixed seed.
"""

import json

import pytest

from repro.observability.driver import run_traced
from repro.observability.export import (
    _dumps, chrome_trace, metrics_rollup, to_jsonl_lines, write_outputs,
)
from repro.observability.flame import folded_stacks
from repro.observability.sinks import (
    BufferSink, JsonlStreamSink, RollupSink, SamplingSink, format_bytes,
)

#: the committed baseline-family grid plus the shapes it cannot cover:
#: SM faults (injected stalls), DM faults (recovery stalls), the
#: switching strategy (frontier/switch events), and the batched engine
CELLS = [
    dict(algorithm="pagerank", variant="push"),
    dict(algorithm="pagerank", variant="pull"),
    dict(algorithm="pagerank", variant="push", dm=True),
    dict(algorithm="pagerank", variant="pull", dm=True),
    dict(algorithm="bfs", variant="push"),
    dict(algorithm="bfs", variant="pull", dm=True),
    dict(algorithm="bfs", variant="switching"),
    dict(algorithm="bfs", variant="push", dm=True, faults=True),
    dict(algorithm="sssp", variant="push", faults=True),
    dict(algorithm="sssp", variant="pull"),
    dict(algorithm="cc", variant="pull", engine="batched"),
    dict(algorithm="pagerank", variant="push", engine="batched"),
]


def _ids(cell):
    return "-".join(f"{k}={v}" for k, v in cell.items())


class TestRollupSinkDifferential:
    @pytest.mark.parametrize("cell", CELLS, ids=_ids)
    def test_incremental_rollup_serializes_identically(self, cell):
        roll = RollupSink()
        run_traced(sinks=[roll], **cell)
        _rt, buffered, _res, _ = run_traced(sinks=[BufferSink()], **cell)
        assert _dumps(roll.rollup()) == _dumps(metrics_rollup(buffered))

    @pytest.mark.parametrize("cell", CELLS, ids=_ids)
    def test_rollup_only_reconciles_without_events(self, cell):
        _rt, tracer, _res, _ = run_traced(sinks=[RollupSink()], **cell)
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict()
        crit = tracer.critical_totals()
        assert crit["reconciled"]
        with pytest.raises(AttributeError, match="no BufferSink"):
            tracer.events

    def test_traffic_matrix_reconciles_against_counters(self):
        roll = RollupSink()
        _rt, tracer, _res, _ = run_traced(
            "pagerank", variant="pull", dm=True, sinks=[roll])
        totals = tracer.traced_totals()
        for field, count in roll.traffic()["totals"].items():
            assert count == getattr(totals, field)

    def test_critical_path_sums_to_run_time(self):
        roll = RollupSink()
        rt, tracer, _res, _ = run_traced(
            "bfs", variant="push", dm=True, faults=True, sinks=[roll])
        crit = roll.critical()["totals"]
        on_path = (crit["compute"] + crit["comm"] + crit["injected_stall"]
                   + crit["sync"] + crit["recovery_stall"])
        assert on_path == pytest.approx(rt.time - tracer.start_time,
                                        rel=1e-9)

    def test_bounded_memory_on_large_batched_run(self):
        """The acceptance cell: a traced --engine batched run at
        n >= 100,000 completes with the rollup's retained state far
        below the buffer's, and reconciles exactly."""
        roll = RollupSink()
        rt, tracer, _res, _ = run_traced(
            "pagerank", variant="push", n=100_000, iterations=2,
            cache_scale=0, engine="batched", sinks=[roll])
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict()
        assert tracer.critical_totals()["reconciled"]
        assert tracer.peak_sink_bytes > 0

    def test_rollup_peak_below_buffer_peak_on_event_heavy_run(self):
        # a DM run emits per-verb events the rollup folds away
        config = dict(algorithm="pagerank", variant="pull", dm=True,
                      n=960, cache_scale=0)
        _rt, t_roll, _res, _ = run_traced(sinks=[RollupSink()], **config)
        _rt, t_buf, _res, _ = run_traced(sinks=[BufferSink()], **config)
        assert t_roll.peak_sink_bytes < t_buf.peak_sink_bytes / 3


class TestBufferedFold:
    def test_views_fold_once_until_next_event_or_reset(self, tmp_path,
                                                        monkeypatch):
        """A buffered tracer answers reconcile / critical_totals /
        write_outputs from one cached fold of its events; a new event
        or rt.reset() drops the cache and the next query re-folds."""
        from repro.algorithms.pagerank import pagerank
        from repro.analysis.runner import instance_graph
        from repro.observability.tracer import attach_tracer
        from repro.runtime.sm import SMRuntime

        folded = []
        on_event = RollupSink.on_event

        def spy(self, ev):
            folded.append(ev.seq)
            on_event(self, ev)

        monkeypatch.setattr(RollupSink, "on_event", spy)
        g = instance_graph("er", 96, d_bar=4.0, seed=7, weighted=False)
        rt = SMRuntime(g, 4)
        tracer = attach_tracer(rt, graph=g)
        pagerank(g, rt, direction="push", iterations=2)
        assert folded == []  # nothing is folded while the run happens

        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict()
        assert tracer.critical_totals()["reconciled"]
        write_outputs(tracer, str(tmp_path))
        n = tracer.n_events
        assert folded == list(range(n))  # exactly one fold

        tracer._emit("barrier", ts=rt.time, data={"barriers": rt.P})
        tracer.reconcile_time()
        assert len(folded) == n + (n + 1)  # re-folded with the new event

        rt.reset()
        traced, _actual = tracer.reconcile()
        assert sum(traced.to_dict().values()) == 0  # no stale fold
        pagerank(g, rt, direction="push", iterations=2)
        before = len(folded)
        tracer.reconcile()
        tracer.critical_totals()
        assert len(folded) == before + tracer.n_events


class TestJsonlStreamSink:
    def test_stream_file_equals_post_hoc_export(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _rt, tracer, _res, _ = run_traced(
            "pagerank", variant="pull", dm=True,
            sinks=[JsonlStreamSink(str(path))])
        tracer.close()
        _rt, buffered, _res, _ = run_traced("pagerank", variant="pull",
                                            dm=True)
        assert path.read_text() == "\n".join(to_jsonl_lines(buffered)) + "\n"

    def test_emit_after_close_fails_loudly(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _rt, tracer, _res, _ = run_traced(
            "pagerank", variant="push", sinks=[JsonlStreamSink(str(path))])
        tracer.close()
        with pytest.raises(RuntimeError, match="after close"):
            tracer._emit("barrier", ts=0.0)

    def test_write_outputs_returns_streamed_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _rt, tracer, _res, _ = run_traced(
            "pagerank", variant="push",
            sinks=[JsonlStreamSink(str(path)), RollupSink()])
        paths = write_outputs(tracer, str(tmp_path))
        assert paths["jsonl"] == str(path)
        assert "chrome" not in paths  # nothing retains the spans
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["schema"] == "repro-metrics/3"


class TestSamplingSink:
    CONFIG = dict(algorithm="pagerank", variant="push", n=960,
                  cache_scale=0)

    def test_deterministic_under_fixed_seed(self):
        samples = []
        for _ in range(2):
            sink = SamplingSink(max_events=16, seed=11)
            run_traced(sinks=[sink], **self.CONFIG)
            samples.append([ev.seq for ev in sink.retained()])
        assert samples[0] == samples[1]
        assert 0 < len(samples[0]) <= 16

    def test_chrome_and_flame_exports_deterministic(self, tmp_path):
        docs = []
        for _ in range(2):
            sink = SamplingSink(max_events=16, seed=11)
            _rt, tracer, _res, _ = run_traced(sinks=[sink], **self.CONFIG)
            view = sink.view()
            docs.append((_dumps(chrome_trace(view)),
                         "\n".join(folded_stacks(view))))
        assert docs[0] == docs[1]

    def test_different_seed_different_sample(self):
        retained = []
        for seed in (0, 1):
            sink = SamplingSink(max_events=16, seed=seed)
            run_traced(sinks=[sink], **self.CONFIG)
            retained.append([ev.seq for ev in sink.retained()])
        assert retained[0] != retained[1]

    def test_sampled_meta_marks_the_export(self):
        sink = SamplingSink(max_events=8, seed=0)
        run_traced(sinks=[sink], **self.CONFIG)
        meta = sink.view().meta()
        sampled = meta["sampled"]
        assert sampled["retained"] <= 8
        assert sampled["spans_seen"] >= sampled["retained"]
        assert sampled["seed"] == 0

    def test_exact_counters_survive_sampling(self):
        sink = SamplingSink(max_events=4, seed=0)
        _rt, tracer, _res, _ = run_traced(sinks=[sink], **self.CONFIG)
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict()
        assert sink.spans_seen > 4  # spans were actually dropped


class TestSinkReset:
    def test_reset_rearms_every_sink(self, tmp_path):
        """rt.reset() -> Tracer.on_reset() must clear the buffer, zero
        the rollup, truncate + re-header the streaming file, and leave
        a second run fully reconcilable through every sink."""
        from repro.analysis.runner import instance_graph
        from repro.observability.tracer import attach_tracer
        from repro.runtime.sm import SMRuntime

        g = instance_graph("er", 96, d_bar=4.0, seed=7, weighted=False)
        rt = SMRuntime(g, 4)
        path = tmp_path / "events.jsonl"
        buf, roll = BufferSink(), RollupSink()
        stream = JsonlStreamSink(str(path))
        tracer = attach_tracer(rt, graph=g, sinks=[buf, roll, stream])

        from repro.algorithms.pagerank import pagerank
        pagerank(g, rt, direction="push", iterations=2)
        first = _dumps(metrics_rollup(tracer))
        assert buf.events and sum(roll.traced_totals().to_dict().values()) > 0
        peak_before = tracer.peak_sink_bytes

        rt.reset()
        assert buf.events == []
        assert buf.nbytes == 0
        assert sum(roll.traced_totals().to_dict().values()) == 0
        assert roll.rollup()["steps"] == []
        assert tracer.n_events == 0 and tracer.kind_counts == {}
        assert tracer.peak_sink_bytes == peak_before  # high-water mark
        # the stream file was truncated back to just the header line
        stream.close()
        assert path.read_text() == _dumps(tracer.meta()) + "\n"
        stream._open()

        pagerank(g, rt, direction="push", iterations=2)
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict()
        assert _dumps(roll.rollup()) == _dumps(metrics_rollup(tracer))
        assert _dumps(metrics_rollup(tracer)) == first  # same run, same doc
        tracer.close()
        assert path.read_text() == "\n".join(to_jsonl_lines(tracer)) + "\n"

    def test_sampler_reset_restores_determinism(self):
        from repro.analysis.runner import instance_graph
        from repro.observability.tracer import attach_tracer
        from repro.runtime.sm import SMRuntime

        g = instance_graph("er", 200, d_bar=4.0, seed=7, weighted=False)
        rt = SMRuntime(g, 4)
        sink = SamplingSink(max_events=8, seed=5)
        attach_tracer(rt, graph=g, sinks=[sink])

        from repro.algorithms.pagerank import pagerank
        pagerank(g, rt, direction="pull", iterations=3)
        first = [ev.seq for ev in sink.retained()]
        rt.reset()
        assert sink.retained() == []
        pagerank(g, rt, direction="pull", iterations=3)
        assert [ev.seq for ev in sink.retained()] == first


class TestBufferDefault:
    def test_default_tracer_is_buffered(self):
        _rt, tracer, _res, _ = run_traced("pagerank", variant="push")
        assert [s.name for s in tracer.sinks] == ["buffer"]
        assert len(tracer.events) == tracer.n_events
        assert tracer.peak_sink_bytes == tracer.sinks[0].peak_nbytes

    def test_kind_counts_match_events(self):
        _rt, tracer, _res, _ = run_traced("bfs", variant="switching")
        kinds = {}
        for ev in tracer.events:
            kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
        assert tracer.kind_counts == kinds


def test_format_bytes():
    assert format_bytes(512) == "512 B"
    assert format_bytes(4096) == "4.0 KiB"
    assert format_bytes(3 * 1024 * 1024) == "3.0 MiB"
    assert format_bytes(5 * 1024 ** 3) == "5.0 GiB"
