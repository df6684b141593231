"""Smoke-scale tests for the extension experiment drivers."""

import pytest

from repro.experiments import (
    ablation_baselines,
    ablation_cost,
    ablation_labels,
    figure_roc,
    propagation,
    validation,
)


class TestAblationBaselines:
    def test_three_approaches_per_dataset(self):
        rows = ablation_baselines.run("smoke", ["MG-B1"])
        assert {r.approach for r in rows} == {
            "mined (step 3)", "invariants", "range-EA"
        }

    def test_mined_is_most_accurate(self):
        rows = ablation_baselines.run("smoke", ["MG-B1"])
        by_approach = {r.approach: r for r in rows}
        assert (
            by_approach["mined (step 3)"].fpr
            < by_approach["invariants"].fpr
        )


class TestAblationCost:
    def test_all_plans_evaluated(self):
        rows = ablation_cost.run("smoke", ["MG-B1"])
        assert {r.plan for r in rows} == set(ablation_cost.PLANS)

    def test_rates_in_range(self):
        for row in ablation_cost.run("smoke", ["MG-B1"]):
            assert 0 <= row.fpr <= 1 and 0 <= row.tpr <= 1


class TestAblationLabels:
    def test_deviation_is_broader(self):
        rows = ablation_labels.run("smoke", ["MG-A2"])
        by_mode = {r.trained_on: r for r in rows}
        assert by_mode["deviation"].positives >= by_mode["failure"].positives

    def test_table_renders(self):
        text = ablation_labels.main("smoke", ["MG-A2"])
        assert "A-6" in text


class TestFigureRoc:
    def test_points_and_envelope(self):
        points, envelope_auc, baseline_auc = figure_roc.run("smoke", "MG-B1")
        assert len(points) >= 2
        assert envelope_auc >= baseline_auc - 1e-9
        assert 0 <= envelope_auc <= 1

    def test_ascii_plot_shape(self):
        plot = figure_roc.ascii_roc([(0.0, 1.0, "x"), (0.5, 0.9, "y")])
        lines = plot.splitlines()
        assert lines[0] == "TPR"
        assert any("*" in line for line in lines)
        assert "sqrt(FPR)" in lines[-1]

    def test_envelope_auc_geometry(self):
        # Points on the diagonal give AUC 1/2; a perfect point gives 1.
        assert figure_roc._envelope_auc([(0.5, 0.5)]) == pytest.approx(0.5)
        assert figure_roc._envelope_auc([(0.0, 1.0)]) == pytest.approx(1.0)

    def test_envelope_ignores_dominated_points(self):
        dominated = figure_roc._envelope_auc([(0.0, 1.0), (0.5, 0.6)])
        assert dominated == pytest.approx(1.0)


class TestPropagationDriver:
    def test_reports_for_requested_datasets(self):
        reports = propagation.run("smoke", ["MG-B1"])
        assert len(reports) == 1
        assert reports[0].module == "RGain"

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            propagation.run("smoke", ["nope"])


class TestValidationDriver:
    def test_same_workload_commensurate(self):
        rows = validation.run("smoke", ["MG-A1"], tolerance=0.2)
        assert len(rows) == 1
        assert rows[0].commensurate

    def test_holdout_mode_runs(self):
        rows = validation.run("smoke", ["MG-A1"], holdout=True)
        assert 0 <= rows[0].observed_tpr <= 1


class TestLatencyDriver:
    def test_three_detectors_per_group(self):
        from repro.experiments import latency

        rows = latency.run("smoke", ["MG-B"])
        assert [r.detector for r in rows] == ["entry", "exit", "union"]

    def test_unknown_group(self):
        from repro.experiments import latency

        with pytest.raises(ValueError):
            latency.run("smoke", ["XX-Y"])


class TestSignificanceDriver:
    def test_matched_folds_delta(self):
        from repro.experiments import significance

        rows = significance.run("smoke", ["MG-B1"])
        row = rows[0]
        assert row.t_test.mean_difference == pytest.approx(
            row.refined_auc - row.baseline_auc, abs=1e-12
        )


class TestReport:
    def test_report_runs_selected_experiments(self, tmp_path):
        from repro.experiments import report

        out = tmp_path / "results.md"
        text = report.main("smoke", ["table1", "figure2"], out)
        assert out.exists()
        assert "## table1" in text and "## figure2" in text
        assert "```" in text

    def test_unknown_experiment_rejected(self):
        from repro.experiments import report

        with pytest.raises(ValueError):
            report.run("smoke", ["tableX"])

    def test_cli_report(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        # Restrict via a monkeypatch-free path: write full smoke report
        # to a file (uses cached smoke datasets, so this is fast).
        out = tmp_path / "r.md"
        assert cli_main(["report", "--scale", "smoke",
                         "--output", str(out)]) == 0
        assert out.exists()
        assert "# repro results report" in out.read_text()
