"""Self-tests of the wall-clock benchmark.

    PYTHONPATH=src python3 -m pytest wallbench/tests -q

They run tiny versions of the workloads in-process, so they take
seconds, not the minutes a benchmark run takes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        return json.load(fh)


def tiny(name: str, n: int = 64) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, graphs=tuple(
        dataclasses.replace(g, n=n) for g in w.graphs))


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {k: tiny(k) for k in workloads.WORKLOADS})


class TestNames:
    def test_names_are_plain_and_unique(self, spec):
        workload_names = [w["name"] for w in spec["workloads"]]
        metric_names = [m["name"] for m in spec["end_to_end"]
                        + spec["per_layer"]]
        for names in (workload_names, metric_names):
            assert len(set(names)) == len(names)
            for name in names:
                assert NAME.fullmatch(name), name

    def test_spec_matches_code(self, spec):
        assert {w["name"]: w["why"] for w in spec["workloads"]} == \
            {k: w.why for k, w in workloads.WORKLOADS.items()}
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
            run.END_TO_END

    def test_layer_map_covers_every_metric(self, spec):
        with open(os.path.join(BENCH_DIR, "layers.json")) as fh:
            layers = json.load(fh)
        names = {m["name"] for m in spec["per_layer"]}
        assert set(layers["moves"]) == names
        for target in layers["moves"].values():
            assert set(target["metrics"]) <= set(run.END_TO_END)
            assert set(target["workloads"]) <= set(workloads.WORKLOADS)
        every = names | set(run.END_TO_END)
        for pair in layers["no_move"]:
            assert pair["workload"] in workloads.WORKLOADS
            prefix = pair["metric"].rstrip("*")
            assert any(m.startswith(prefix) if pair["metric"].endswith("*")
                       else m == prefix for m in every), pair


class TestSeeds:
    def test_seed_changes_inputs_not_metrics(self, tiny_workloads, tmp_path,
                                             spec):
        per_layer = {m["name"] for m in spec["per_layer"]}
        for name in workloads.WORKLOADS:
            a = worker.run_worker(name, 7, check=True, trace=True,
                                  outdir=str(tmp_path))
            b = worker.run_worker(name, 8, check=True, trace=True,
                                  outdir=str(tmp_path))
            assert a["graphs"].keys() == b["graphs"].keys()
            assert all(a["graphs"][k] != b["graphs"][k] for k in a["graphs"])
            assert set(a["layers"]) == set(b["layers"])
            assert set(a["layers"]) | {"bench.trace_overhead_s"} == per_layer
            assert set(run.end_to_end(a)) == set(run.end_to_end(b)) \
                == set(run.END_TO_END)
            assert not any(c["problems"] for c in a["cells"] + b["cells"])
        for m in spec["per_layer"]:
            assert run.layer_unit(m["name"]) == m["unit"], m

    def test_cache_layer_only_on_cachesim(self, tiny_workloads, tmp_path):
        calls = {name: worker.run_worker(name, 7, check=False, trace=True,
                                         outdir=str(tmp_path))
                 ["layers"]["machine.cache.calls"]
                 for name in workloads.WORKLOADS}
        assert calls["cachesim"] > 0
        assert calls["large-batched"] == calls["interp-traced"] == 0


class TestCorrectness:
    def test_corrupted_kernel_result_fails_its_cells(self, monkeypatch,
                                                     tmp_path):
        import repro.streams.kernels as kernels
        original = kernels.pagerank_batched

        def corrupted(*args, **kwargs):
            result = original(*args, **kwargs)
            result.ranks = result.ranks.copy()
            result.ranks[0] += 1e-3
            return result

        monkeypatch.setattr(kernels, "pagerank_batched", corrupted)
        w = tiny("large-batched")
        p = workloads.run_pass(w, 7, str(tmp_path), check=True)
        failed = {c["id"] for c in p["cells"] if c["problems"]}
        assert failed == {c.id for c in w.cells if c.algorithm == "pagerank"}
        attempted, n_failed, _ = run.judge([p], len(w.cells), None)
        assert (attempted, n_failed) == (len(w.cells), len(failed))

    def test_judge_flags_drift(self):
        cells = [{"id": "a", "problems": [], "sim_digest": "x",
                  "result_digest": "r"},
                 {"id": "b", "problems": [], "sim_digest": "y",
                  "result_digest": "s"}]
        drifted = [dict(cells[0], result_digest="other"), cells[1]]
        passes = [{"cells": cells}, {"cells": drifted}, None]
        attempted, failed, problems = run.judge(passes, 2, None)
        assert (attempted, failed) == (6, 3)
        _, failed, _ = run.judge([{"cells": cells}], 2, {"a": "x", "b": "z"})
        assert failed == 1

    def test_same_partition(self):
        assert workloads.same_partition([0, 0, 2, 2], [5, 5, 1, 1])
        assert not workloads.same_partition([0, 0, 2, 2], [5, 5, 5, 1])
        assert not workloads.same_partition([0, 0, 2, 3], [5, 5, 1, 1])

    def test_committed_digests_cover_every_cell(self):
        committed = run.load_digests()
        for name, w in workloads.WORKLOADS.items():
            assert set(committed[name]) == {c.id for c in w.cells}


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TestSpans:
    def test_self_time_is_exact(self):
        # root [0, 100] holds a [10, 40] (which holds c [15, 25]) and
        # b [50, 90] (which holds two unkept d spans [55, 60], [70, 85])
        rec = spans.SpanRecorder(FakeClock(
            [0, 10, 15, 25, 40, 50, 55, 60, 70, 85, 90, 100]))
        with rec.span("root"):
            with rec.span("a"):
                with rec.span("c"):
                    pass
            with rec.span("b"):
                with rec.span("d", keep=False):
                    pass
                with rec.span("d", keep=False):
                    pass
        assert rec.totals == {"c": [1, 10, 10], "a": [1, 30, 20],
                              "d": [2, 20, 20], "b": [1, 40, 20],
                              "root": [1, 100, 30]}
        by_name = {s[2]: s for s in rec.spans}
        assert by_name["root"][1] is None
        assert by_name["a"][1] == by_name["b"][1] == by_name["root"][0]
        assert by_name["c"][1] == by_name["a"][0]
        assert sum(v[2] for v in rec.totals.values()) == 100

    def test_wrap_counts_after_return(self):
        rec = spans.SpanRecorder(FakeClock([0, 3]))
        seen = []
        f = rec.wrap(lambda x, y=2: x + y, "f",
                     after=lambda r, args, out: seen.append((args, out)))
        assert f(1) == 3
        assert seen == [({"x": 1, "y": 2}, 3)]
        assert rec.totals["f"] == [1, 3, 3]

    def test_install_reaches_by_name_imports(self):
        import importlib
        # the package re-exports the function under the module's name
        er_mod = importlib.import_module("repro.generators.erdos_renyi")
        builder = importlib.import_module("repro.graph.builder")
        original = builder.from_edges
        rec = spans.SpanRecorder()
        restore = spans.install_layers(rec)
        try:
            assert builder.from_edges is not original
            assert er_mod.from_edges is builder.from_edges
            g = er_mod.erdos_renyi(50, d_bar=4.0, seed=1)
        finally:
            restore()
        assert builder.from_edges is original is er_mod.from_edges
        assert rec.calls("generators") == rec.calls("graph.from_edges") == 1
        assert rec.counts["graph.from_edges.arcs_out"] == len(g.adj)
        assert rec.counts["graph.from_edges.arcs_in"] >= len(g.adj)
        # the build ran inside the generator span: its time is not the
        # generator's self time
        gen = rec.totals["generators"]
        assert gen[2] == pytest.approx(
            gen[1] - rec.totals["graph.from_edges"][1])
        assert isinstance(g.adj, np.ndarray)
