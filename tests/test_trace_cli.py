"""Smoke tests for the ``python -m repro trace`` subcommand."""

import json

import pytest

from repro.__main__ import main


class TestTraceCommand:
    def test_sm_trace_writes_all_exports(self, capsys, tmp_path):
        out = tmp_path / "t"
        rc = main(["trace", "pagerank", "--variant", "push",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "traced pagerank/push [sm]" in text
        assert "counter reconciliation: ok" in text
        for name in ("events.jsonl", "trace.json", "metrics.json"):
            assert (out / name).exists()
        chrome = json.loads((out / "trace.json").read_text())
        assert chrome["traceEvents"]

    def test_dm_faults_trace(self, capsys, tmp_path):
        out = tmp_path / "t"
        rc = main(["trace", "pagerank", "--variant", "push", "--dm",
                   "--faults", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "[dm]" in text and "counter reconciliation: ok" in text
        assert "recovery=" in text
        lines = (out / "events.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["runtime"] == "dm"

    def test_switching_bfs_trace(self, capsys, tmp_path):
        rc = main(["trace", "bfs", "--variant", "switching",
                   "--out", str(tmp_path / "t")])
        assert rc == 0
        assert "switch=" in capsys.readouterr().out

    def test_faults_without_dm_traces_sm_chaos(self, capsys, tmp_path):
        # PR 8: --faults on the SM runtime attaches the SM injector
        rc = main(["trace", "bfs", "--faults",
                   "--out", str(tmp_path / "t")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault=" in out
        assert "counter reconciliation: ok" in out

    def test_missing_algorithm_without_bench_is_an_error(self, capsys,
                                                         tmp_path):
        rc = main(["trace", "--out", str(tmp_path / "t")])
        assert rc == 2
        assert "algorithm" in capsys.readouterr().out

    def test_flame_export(self, capsys, tmp_path):
        out = tmp_path / "t"
        rc = main(["trace", "pagerank", "--variant", "pull", "--flame",
                   "--out", str(out)])
        assert rc == 0
        assert "flame:" in capsys.readouterr().out
        folded = (out / "flame.folded").read_text()
        assert folded, "a traced run must produce stacks"
        for line in folded.splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_bench_writes_baseline(self, capsys, tmp_path):
        target = tmp_path / "BENCH_trace.json"
        rc = main(["trace", "--bench", "--out", str(target)])
        assert rc == 0
        doc = json.loads(target.read_text())
        assert doc["schema"] == "repro-bench/3"
        assert doc["kind"] == "trace"
        assert len(doc["cells"]) == 20
        families = {c["family"] for c in doc["cells"]}
        assert families == {"baseline", "large"}
        for cell in doc["cells"]:
            assert cell["time_mtu"] > 0 and cell["events"]
            assert cell["phases"] and cell["cut"]["edges_total"] > 0
            assert cell["counters"]["l1_misses"] > 0
            # PR 9: every cell records its critical-path decomposition
            # (the on-path components sum to the cell time) and its
            # traffic totals (nonzero only on DM cells)
            crit = cell["critical"]
            on_path = (crit["compute"] + crit["comm"]
                       + crit["injected_stall"] + crit["sync"]
                       + crit["recovery_stall"])
            assert on_path == pytest.approx(cell["time_mtu"], rel=1e-9)
            if cell["runtime"] == "dm":
                assert crit["comm"] > 0 and cell["traffic"]
            else:
                assert crit["comm"] == 0 and cell["traffic"] == {}
        for cell in doc["cells"]:
            if cell["family"] == "large":
                assert cell["engine"] == "batched"
                assert cell["runtime"] == "sm"
        perf = json.loads((tmp_path / "BENCH_perf.json").read_text())
        assert perf["schema"] == "repro-bench/3"
        assert perf["kind"] == "perf"
        assert len(perf["cells"]) == 20
        for cell in perf["cells"]:
            assert "phases" not in cell and cell["time_mtu"] > 0
            assert cell["critical"] and cell["machine"]
            assert cell["resolved_variant"]

    def test_sink_summary_line(self, capsys, tmp_path):
        rc = main(["trace", "pagerank", "--variant", "push",
                   "--out", str(tmp_path / "t")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "sinks: buffer" in text
        assert "events=" in text and "peak-sink-mem=" in text

    def test_sink_rollup_skips_span_exports(self, capsys, tmp_path):
        out = tmp_path / "t"
        rc = main(["trace", "pagerank", "--variant", "push",
                   "--sink", "rollup", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "sinks: rollup" in text
        assert "counter reconciliation: ok" in text
        assert "skipped (no sink retains what these need)" in text
        assert (out / "metrics.json").exists()
        assert not (out / "trace.json").exists()
        assert not (out / "events.jsonl").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["schema"] == "repro-metrics/3"

    def test_sink_stream_writes_incremental_jsonl(self, capsys, tmp_path):
        out = tmp_path / "t"
        rc = main(["trace", "pagerank", "--variant", "pull", "--dm",
                   "--sink", "stream", "--out", str(out)])
        assert rc == 0
        assert "sinks: jsonl-stream, rollup" in capsys.readouterr().out
        lines = (out / "events.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["runtime"] == "dm"
        assert len(lines) > 1
        assert (out / "metrics.json").exists()

    def test_sink_sampling_marks_chrome_export(self, capsys, tmp_path):
        out = tmp_path / "t"
        rc = main(["trace", "pagerank", "--variant", "push",
                   "--sink", "sampling", "--sample-events", "16",
                   "--flame", "--out", str(out)])
        assert rc == 0
        assert "sinks: sampling" in capsys.readouterr().out
        chrome = json.loads((out / "trace.json").read_text())
        sampled = chrome["otherData"]["sampled"]
        assert sampled["retained"] <= 16
        assert (out / "flame.folded").read_text()
        # exact counters still present despite sampled spans
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["totals"]["reads"] > 0

    def test_wallclock_profile(self, capsys, tmp_path):
        out = tmp_path / "t"
        rc = main(["trace", "pagerank", "--variant", "push",
                   "--wallclock", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "wallclock: traced=" in text
        assert "overhead=" in text and "events/s" in text
        block = json.loads((out / "metrics.json").read_text())["wallclock"]
        assert block["clock"] == "wall-seconds"
        assert block["traced_s"] > 0 and block["untraced_s"] > 0
        assert block["events"] > 0 and block["peak_sink_bytes"] > 0
        assert block["phases"]

    def test_wallclock_absent_without_flag(self, tmp_path):
        out = tmp_path / "t"
        assert main(["trace", "pagerank", "--variant", "push",
                     "--out", str(out)]) == 0
        assert "wallclock" not in json.loads(
            (out / "metrics.json").read_text())

    def test_overhead_budget_exceeded_fails(self, capsys, tmp_path):
        # a traced run cannot finish in half the untraced wall time,
        # so a 0.5x budget must trip the gate regardless of noise
        rc = main(["trace", "pagerank", "--variant", "push",
                   "--overhead-budget", "0.5",
                   "--out", str(tmp_path / "t")])
        assert rc == 1
        assert "OVERHEAD BUDGET EXCEEDED" in capsys.readouterr().out

    def test_bench_matches_committed_baseline(self, tmp_path):
        from pathlib import Path
        root = Path(__file__).parent.parent
        target = tmp_path / "BENCH_trace.json"
        assert main(["trace", "--bench", "--out", str(target)]) == 0
        for name in ("BENCH_trace.json", "BENCH_perf.json"):
            assert json.loads((tmp_path / name).read_text()) == \
                json.loads((root / name).read_text())


class TestOverheadTiming:
    """``--overhead-budget`` judges the medians of warmed, alternating
    untraced/traced pairs, so one noisy pair cannot flip the verdict."""

    @staticmethod
    def _clock(durations):
        """A fake ``perf_counter`` whose successive timed calls take the
        given (untraced, traced) seconds, pair by pair."""
        ticks, now = [], 0.0
        for u, t in durations:
            for d in (u, t):
                ticks += [now, now + d]
                now += d + 1.0
        return iter(ticks).__next__

    def _ratio(self, durations):
        from repro.observability.driver import time_overhead
        u, t, _ = time_overhead(lambda: None, lambda: None,
                                clock=self._clock(durations))
        return t / u

    def test_one_outlier_pair_does_not_flip_the_verdict(self):
        steady = [(0.005, 0.006)] * 4
        cold = (0.005, 0.100)        # the untimed warm-up pair
        # alone, either outlier reads over the 1.5x CI budget
        for outlier in ((0.005, 0.020), (0.002, 0.006)):
            for at in range(5):
                pairs = steady[:at] + [outlier] + steady[at:]
                assert self._ratio([cold] + pairs) == pytest.approx(1.2)

    def test_a_slow_tracer_still_fails(self):
        assert self._ratio([(0.005, 0.006)] + [(0.005, 0.010)] * 5) \
            == pytest.approx(2.0)

    def test_warms_both_paths_and_releases_all_but_the_last_run(self):
        from repro.observability.driver import OVERHEAD_PAIRS, time_overhead
        calls, released = [], []
        runs = iter(range(100))

        def traced():
            calls.append("traced")
            return next(runs)

        _, _, last = time_overhead(
            lambda: calls.append("untraced"), traced,
            release=released.append,
            clock=self._clock([(1.0, 1.0)] * (OVERHEAD_PAIRS + 1)))
        assert calls == ["untraced", "traced"] * (OVERHEAD_PAIRS + 1)
        assert released == list(range(OVERHEAD_PAIRS))
        assert last == OVERHEAD_PAIRS
