"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestInfo:
    def test_lists_machines_and_datasets(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "XC30" in out and "Trivium" in out
        assert "orc" in out and "rca" in out


class TestStats:
    def test_prints_table2_stats(self, capsys):
        assert main(["stats", "am", "--scale", "9"]) == 0
        out = capsys.readouterr().out
        assert "n " in out and "D " in out

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            main(["stats", "not-a-graph"])


class TestRun:
    @pytest.mark.parametrize("algo,needs_direction", [
        ("pagerank", True), ("bfs", True), ("sssp", True),
        ("triangles", True), ("coloring", True), ("mst", True),
        ("prim", True), ("components", True),
    ])
    def test_each_algorithm_runs(self, capsys, algo, needs_direction):
        rc = main(["run", algo, "am", "--scale", "8", "--threads", "4",
                   "--iterations", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated time" in out and "events:" in out

    def test_bc_with_sampled_sources(self, capsys):
        assert main(["run", "bc", "am", "--scale", "8", "--iterations", "4",
                     "--threads", "4"]) == 0
        assert "sources" in capsys.readouterr().out

    def test_push_direction(self, capsys):
        assert main(["run", "pagerank", "am", "--scale", "8",
                     "--direction", "push", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "[push]" in out

    def test_machine_selection(self, capsys):
        assert main(["run", "pagerank", "am", "--scale", "8",
                     "--machine", "Trivium", "--iterations", "2"]) == 0
        assert "Trivium" in capsys.readouterr().out

    def test_unknown_machine_errors(self, capsys):
        assert main(["run", "pagerank", "am", "--scale", "8",
                     "--machine", "Cray-1"]) == 2

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "sort", "am"])

    @pytest.mark.parametrize("argv,message", [
        (["run", "bfs", "er", "--scale", "0"], "need at least two vertices"),
        (["run", "bfs", "zz"], "unknown dataset 'zz'"),
        (["run", "bfs", "er", "--threads", "0"], "P must be positive"),
        (["run", "bfs", "er", "--scale", "4", "--source", "999999"],
         "root out of range"),
        (["run", "sssp", "er", "--scale", "4", "--direction", "push-pa"],
         "sssp has no 'push-pa' variant"),
        (["trace", "bfs", "--cache-scale", "-1", "--out", "unused"],
         "cache scale must be >= 0"),
        (["trace", "bfs", "--sink", "sampling", "--sample-events", "0",
          "--out", "unused"], "sample size must be >= 2 spans"),
        (["trace", "bfs", "--sink", "sampling", "--sample-events", "1",
          "--out", "unused"], "sample size must be >= 2 spans"),
        (["run", "bfs", "er", "--scale", "8", "--cache-scale", "0"],
         "cache scale must be >= 1"),
        (["run", "bfs", "er", "--scale", "8", "--cache-scale", "-4"],
         "cache scale must be >= 1"),
    ])
    def test_bad_input_exits_2_with_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_components_alias(self, capsys):
        assert main(["run", "cc", "am", "--scale", "8", "--threads",
                     "4"]) == 0
        assert "components in" in capsys.readouterr().out


class TestHelp:
    def _help(self, capsys, *argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    def test_trace_faults_help_covers_sm(self, capsys):
        text = self._help(capsys, "trace")
        assert "(requires --dm)" not in text
        assert "chaos fault plan of the selected runtime (SM, or DM with " \
            "--dm)" in text

    def test_reconcile_cell_count_comes_from_the_table(self, capsys):
        from repro.observability.footprint import reconcile_cells
        text = self._help(capsys, "analyze")
        assert f"skip the {len(reconcile_cells())}-cell dynamic" in text
        assert len(reconcile_cells()) == 14


class TestExperimentsForwarding:
    def test_forwards_to_run_all(self, capsys):
        assert main(["experiments", "--quick", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out


class TestAnalyzeFaults:
    def test_chaos_suite_runs_clean(self, capsys):
        rc = main(["analyze", "--faults", "--scale", "36", "-P", "4",
                   "--fault-seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos suite" in out
        assert "faults: 0 failing" in out
        assert "fault overhead" in out

    def test_faults_flag_skips_other_passes(self, capsys):
        assert main(["analyze", "--faults", "--scale", "36",
                     "--fault-seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "lint:" not in out and "epoch checker" not in out

    def test_road_dataset_accepted(self, capsys):
        rc = main(["analyze", "--dm", "--dataset", "road",
                   "--scale", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "road n=64" in out and "dm: 0 failing" in out

    def test_comm_dataset_accepted(self, capsys):
        rc = main(["analyze", "--dm", "--dataset", "comm",
                   "--scale", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "comm n=64" in out and "dm: 0 failing" in out
