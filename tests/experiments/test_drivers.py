"""Smoke-scale tests of the experiment drivers (structure, not timing)."""

import pytest

from repro.experiments import (
    ablation_location,
    ablation_sampling,
    figure2,
    reporting,
    table1,
    table3,
    table4,
)
from repro.experiments.cli import main as cli_main

SUBSET = ["7Z-A1", "MG-B2"]


class TestReporting:
    def test_fmt_sci(self):
        assert reporting.fmt_sci(0.0) == "0"
        assert reporting.fmt_sci(2e-5) == "2E-05"
        assert reporting.fmt_sci(0.0025) == "3E-03"  # rounded

    def test_fmt_rate(self):
        assert reporting.fmt_rate(0.9979) == ".9979"
        assert reporting.fmt_rate(1.0) == "1.0000"
        assert reporting.fmt_rate(0.99996) == "1.0000"

    def test_render_table_alignment(self):
        text = reporting.render_table(
            ["A", "Blong"], [["x", "y"], ["longer", "z"]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) <= len(lines[1]) + 2 for line in lines[2:])


class TestTable1:
    def test_structure(self):
        confusion = table1.run("smoke", "7Z-A1")
        assert confusion.total > 0
        text = table1.main("smoke", "7Z-A1")
        assert "Table I" in text and "auc" in text


class TestTable3:
    def test_rows_for_subset(self):
        rows = table3.run("smoke", SUBSET)
        assert [r.dataset for r in rows] == SUBSET
        for row in rows:
            assert 0 <= row.fpr <= 1
            assert 0 <= row.tpr <= 1
            assert 0.5 <= row.auc <= 1
            assert row.report.predicate is not None

    def test_cells_formatting(self):
        row = table3.run("smoke", ["MG-B2"])[0]
        cells = row.cells()
        assert cells[0] == "MG-B2"
        assert len(cells) == 6


class TestTable4:
    def test_refinement_never_worse(self):
        rows = table4.run("smoke", SUBSET)
        for row in rows:
            assert row.improved
            assert row.sampling != ""

    def test_sampling_column_format(self):
        rows = table4.run("smoke", ["MG-B2"])
        cell = rows[0].cells()[1]
        assert cell == "-" or cell.endswith("(U)") or cell.endswith("(O)")


class TestFigure2:
    def test_contains_tree_and_predicate(self):
        text = figure2.run("smoke", "MG-B2")
        assert "Extracted predicate" in text
        assert "nodes" in text


class TestAblations:
    def test_sampling_plans_evaluated(self):
        rows = ablation_sampling.run("smoke", ["MG-B2"])
        assert {r.plan for r in rows} == set(ablation_sampling.PLANS)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            ablation_sampling.run("smoke", ["nope"])

    def test_location_grouping(self):
        rows = ablation_location.run("smoke", ["MG-B"])
        assert len(rows) == 3
        assert {r.combination for r in rows} == {
            "entry/entry", "entry/exit", "exit/exit"
        }


class TestCli:
    def test_table3_subset(self, capsys):
        assert cli_main(["table3", "--scale", "smoke",
                         "--datasets", "MG-B2"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out and "MG-B2" in out

    def test_figure2_dataset_argument(self, capsys):
        assert cli_main(["figure2", "--scale", "smoke",
                         "--datasets", "MG-B2"]) == 0
        assert "MG-B2" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["tableX"])

    @pytest.mark.parametrize(
        "experiment",
        ["table2", "validation", "ablation-labels", "ablation-baselines"],
    )
    def test_unknown_dataset(self, experiment, capsys):
        argv = [experiment, "--scale", "smoke", "--datasets", "XX-Z9", "MG-B2"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: unknown dataset 'XX-Z9'; available: 7Z-A1, "
        )
        assert "MG-B3" in captured.err
        assert captured.out == ""  # no table printed

    @pytest.mark.parametrize("experiment", ["latency", "ablation-location"])
    def test_group_prefix_reaches_the_driver(self, experiment, monkeypatch):
        # These two take dataset groups ("MG-B"), not dataset ids.
        from repro.experiments import cli

        seen = []
        monkeypatch.setitem(
            cli.EXPERIMENTS, experiment, lambda scale, datasets: seen.append(datasets)
        )
        assert cli_main([experiment, "--scale", "smoke", "--datasets", "MG-B"]) == 0
        assert seen == [["MG-B"]]

    def test_unknown_group_prefix(self, capsys):
        argv = ["ablation-location", "--scale", "smoke", "--datasets", "XX-Z"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown dataset 'XX-Z1'; available: "
        )


class TestFigure1:
    def test_trace_has_all_stages(self):
        from repro.experiments import figure1

        trace, detector = figure1.run("smoke", "MG-A2")
        for marker in ("[Step 1]", "[Step 2]", "[Step 3]", "[Step 4]",
                       "[Output]"):
            assert marker in trace
        assert detector.location is not None


class TestTable2Driver:
    def test_subset(self):
        from repro.experiments import table2

        rows = table2.run("smoke", ["MG-A1", "MG-A3"])
        assert [r.dataset for r in rows] == ["MG-A1", "MG-A3"]
        for row in rows:
            assert 0 < row.failure_rate < 1
