"""The kernel table (:mod:`repro.kernels`): every row runs and agrees
with its sequential oracle, and every lookup failure names what is
missing."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.effects import KERNELS as EFFECT_KERNELS
from repro.analysis.runner import instance_graph
from repro.kernels import KERNELS, TRACE_ALGORITHMS, find, select
from repro.runtime.dm import DMRuntime
from repro.runtime.sm import SMRuntime

DOCS = Path(__file__).resolve().parents[1] / "docs" / "analysis.md"


def _row_id(spec) -> str:
    return f"{spec.name}-{spec.runtime}-{spec.variant}-{spec.engine or 'any'}"


class TestOracles:
    """What each kernel computes, not only what it counts: every row on
    a small Erdős–Rényi graph and a small road lattice, P = 4."""

    @pytest.mark.parametrize("dataset", ("er", "road"))
    @pytest.mark.parametrize("spec", KERNELS, ids=_row_id)
    def test_row_matches_its_oracle(self, spec, dataset):
        g = instance_graph(dataset, 48, d_bar=4.0, seed=7,
                           weighted=spec.weighted)
        rt = DMRuntime(g.n, 4) if spec.runtime == "dm" else SMRuntime(g, 4)
        result = spec.run(g, rt)
        assert spec.agrees(result, spec.reference(g)), (
            f"{_row_id(spec)} on {dataset} disagrees with its oracle")

    def test_a_wrong_answer_is_caught(self):
        spec = find("bfs")
        g = instance_graph("er", 48, d_bar=4.0, seed=7, weighted=False)
        result = spec.run(g, SMRuntime(g, 4))
        result.level[-1] += 1
        assert not spec.agrees(result, spec.reference(g))


class TestTable:
    def test_rows_are_unique(self):
        keys = [(s.name, s.runtime, s.variant, s.engine) for s in KERNELS]
        assert len(keys) == len(set(keys))

    def test_effect_names_exist(self):
        known = {name for name, _, _ in EFFECT_KERNELS}
        assert {s.effect for s in KERNELS if s.effect} <= known

    def test_every_batched_row_has_an_interpreted_twin(self):
        for s in select(engine="batched"):
            twin = find(s.name, variant=s.variant)
            assert twin.effect == s.effect and twin.weighted == s.weighted

    def test_trace_algorithms_are_the_batched_set(self):
        assert TRACE_ALGORITHMS == ("pagerank", "bfs", "sssp", "cc")

    def test_dm_push_pull_name_the_rma_backends(self):
        assert find("pagerank", runtime="dm", variant="pull").variant \
            == "rma-pull"
        assert find("bfs", runtime="dm", variant="pull").variant == "pull"

    def test_dm_rows_serve_both_engines(self):
        assert find("sssp", runtime="dm", engine="batched").engine is None

    def test_aliases_resolve(self):
        assert find("components") is find("cc")
        assert find("SSSP-Δ", variant="pull") is find("sssp", variant="pull")


class TestMissingRows:
    @pytest.mark.parametrize("kwargs,message", [
        ({"algorithm": "pagerank", "engine": "vectorised"}, "unknown engine"),
        ({"algorithm": "sort"}, "unknown algorithm"),
        ({"algorithm": "cc", "runtime": "dm"}, "cc has no DM kernel"),
        ({"algorithm": "bfs", "variant": "switching", "engine": "batched"},
         "no batched kernel"),
        ({"algorithm": "sssp", "variant": "push-pa"},
         "sssp has no 'push-pa' variant on SM"),
    ])
    def test_error_names_the_hole(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            find(**kwargs)


class TestDocumentedMatrix:
    """docs/analysis.md's "Kernel matrix" lists exactly the table's rows."""

    def test_rows_match_the_table(self):
        text = DOCS.read_text()
        section = text[text.index("## Kernel matrix"):]
        section = section[:section.index("\n## ", 1)]
        groups: dict[tuple, list[str]] = {}
        for s in KERNELS:
            key = (s.name, s.label, s.runtime, s.engine or "any", s.kernel)
            groups.setdefault(key, []).append(s.variant)
        expected = [
            f"| `{name}` | {label} | {runtime} | {engine} | "
            f"{', '.join(variants)} | `{kernel}` |"
            for (name, label, runtime, engine, kernel), variants
            in groups.items()]
        documented = [line for line in section.splitlines()
                      if line.startswith("| `")]
        assert documented == expected
