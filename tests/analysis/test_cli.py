"""``repro`` CLI: document sniffing, lint gating, report formats.

The lint exit-code test is the PR's acceptance criterion: a detector
with an unsatisfiable clause must fail ``repro lint``.
"""

import json

import pytest

from repro.cli import main
from repro.core.detector import Detector
from repro.core.predicate import And, Comparison
from repro.core.serialize import detector_to_dict, predicate_to_dict
from repro.runtime.registry import DetectorRegistry

UNSAT = And([Comparison("x", "<=", 1.0), Comparison("x", ">", 5.0)])
CLEAN = Comparison("y", ">", 0.0)
FAT = And([Comparison("x", "<=", 5.0), Comparison("x", "<=", 9.0)])


@pytest.fixture
def write_doc(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


class TestLint:
    def test_unsatisfiable_detector_fails(self, write_doc, capsys):
        path = write_doc(
            "bad.json", detector_to_dict(Detector(UNSAT, name="bad"))
        )
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "unsatisfiable-clause" in out

    def test_clean_detector_passes(self, write_doc):
        path = write_doc(
            "ok.json", detector_to_dict(Detector(CLEAN, name="ok"))
        )
        assert main(["lint", path]) == 0

    def test_fail_on_warning_vs_info(self, write_doc):
        path = write_doc("fat.json", predicate_to_dict(FAT))
        # redundant-atoms is INFO: passes at default/--fail-on warning.
        assert main(["lint", path]) == 0
        assert main(["lint", path, "--fail-on", "warning"]) == 0
        assert main(["lint", path, "--fail-on", "info"]) == 1
        assert main(["lint", path, "--fail-on", "never"]) == 0

    def test_registry_document(self, write_doc, capsys):
        registry = DetectorRegistry(lint_policy="off")
        registry.publish(Detector(UNSAT, name="bad"))
        registry.publish(Detector(CLEAN, name="ok"))
        path = write_doc("registry.json", registry.to_dict())
        assert main(["lint", path]) == 1
        assert "bad" in capsys.readouterr().out

    def test_select_restricts_rules(self, write_doc, capsys):
        path = write_doc("bad.json", predicate_to_dict(UNSAT))
        assert main(["lint", path, "--select", "redundant-atoms"]) == 0
        assert "unsatisfiable" not in capsys.readouterr().out

    def test_json_format(self, write_doc, capsys):
        path = write_doc("bad.json", predicate_to_dict(UNSAT))
        assert main(["lint", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 1
        rules = {f["rule"] for f in payload["findings"]}
        assert "unsatisfiable-clause" in rules

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "unsatisfiable-clause" in out
        assert "dead-injection" in out

    def test_no_documents_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "no documents" in capsys.readouterr().err


class TestAnalyze:
    def test_report_and_exit_zero(self, write_doc, capsys):
        path = write_doc("fat.json", predicate_to_dict(FAT))
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "2 -> 1 atoms" in out

    def test_registry_redundancy_section(self, write_doc, capsys):
        registry = DetectorRegistry(lint_policy="off")
        registry.publish(Detector(Comparison("x", "<=", 5.0), name="narrow"))
        registry.publish(Detector(Comparison("x", "<=", 9.0), name="wide"))
        path = write_doc("registry.json", registry.to_dict())
        assert main(["analyze", path]) == 0
        assert "implies" in capsys.readouterr().out

    def test_json_format(self, write_doc, capsys):
        path = write_doc("fat.json", predicate_to_dict(FAT))
        assert main(["analyze", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (subject,) = payload["subjects"]
        assert subject["atoms_after"] == 1


class TestSimplify:
    def test_prints_canonical_form(self, write_doc, capsys):
        path = write_doc("fat.json", predicate_to_dict(FAT))
        assert main(["simplify", path]) == 0
        out = capsys.readouterr().out
        assert "2 -> 1 atoms" in out
        assert "state" in out


class TestSurface:
    def test_target_package_report(self, capsys):
        pytest.importorskip("repro.targets.flightgear")
        assert main(["surface", "flightgear"]) == 0
        out = capsys.readouterr().out
        assert "probe(s)" in out

    def test_json_format(self, capsys):
        pytest.importorskip("repro.targets.flightgear")
        assert main(["surface", "flightgear", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probes"]


class TestCampaignDocuments:
    def _campaign_doc(self, **extra):
        from repro.injection.campaign import CampaignConfig
        from repro.injection.instrument import Location

        payload = CampaignConfig(
            module="M",
            injection_location=Location.ENTRY,
            sample_location=Location.ENTRY,
            test_cases=tuple(range(50)),
            injection_times=(0, 1, 2, 3),
            variables=("a", "b"),
            bits=tuple(range(32)),
        ).to_dict()
        payload.update(extra)
        return payload

    def test_unpruned_campaign_warns_despite_journal(self, write_doc, capsys):
        # Older documents may carry a ``journal`` path; lint ignores it.
        path = write_doc(
            "camp.json", self._campaign_doc(journal="runs/camp.jsonl")
        )
        assert main(["lint", path, "--fail-on", "warning"]) == 1
        assert "unpruned-exhaustive-campaign" in capsys.readouterr().out

    def test_invalid_campaign_document(self, write_doc, capsys):
        path = write_doc(
            "camp.json",
            {"module": "M", "injection_location": "sideways"},
        )
        assert main(["lint", path]) == 2
        assert "invalid campaign configuration" in capsys.readouterr().err


class TestOrchestrate:
    def test_smoke_run_text(self, capsys):
        assert main(["orchestrate", "MG-B1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "MG-B1 @ smoke" in out
        assert "best plan:" in out

    def test_smoke_run_json_with_journal_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "orchestrate", "MG-B1", "--scale", "smoke",
            "--store", store, "--format", "json",
        ]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["campaign"]["stored"] == 0
        assert first["campaign"]["executed"] == first["campaign"]["tasks"]

        assert main([
            "orchestrate", "MG-B1", "--scale", "smoke",
            "--store", store, "--format", "json",
        ]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["campaign"]["executed"] == 0
        assert second["baseline"] == first["baseline"]
        assert second["refined"] == first["refined"]
        assert second["best_plan"] == first["best_plan"]

    def test_unknown_dataset(self, capsys):
        assert main(["orchestrate", "XX-Z9", "--scale", "smoke"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown dataset 'XX-Z9'; available: 7Z-A1, "
        )


class TestDatasetCommands:
    """``sample`` and ``campaign`` end to end at smoke scale, and the
    unknown-dataset error ``orchestrate`` shares with every other
    dataset command."""

    @pytest.mark.parametrize(
        "command",
        [
            ["prune", "XX-Z9"],
            ["sample", "XX-Z9"],
            ["campaign", "XX-Z9", "--store", "{tmp}/store"],
            ["trace", "record", "XX-Z9", "--out", "{tmp}/trace.jsonl"],
        ],
        ids=["prune", "sample", "campaign", "trace-record"],
    )
    def test_unknown_dataset(self, command, tmp_path, capsys):
        assert main([arg.format(tmp=tmp_path) for arg in command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown dataset 'XX-Z9'; available: ")
        assert "MG-B1" in err
        assert list(tmp_path.iterdir()) == []  # no store, no trace

    def test_sample_text_and_json(self, capsys):
        argv = ["sample", "7Z-A1", "--target-halfwidth", "0.08"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("7Z-A1 @ smoke: sampled ")
        assert "target half-width 0.08" in out
        assert main([*argv, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spec"]["target_halfwidth"] == 0.08
        assert 0 < report["cells_sampled"] <= report["cells_total"]
        assert report["strata"]

    def test_campaign_rerun_is_served_by_the_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        docs = [tmp_path / "first.json", tmp_path / "second.json"]
        runs = []
        for doc in docs:
            assert main([
                "campaign", "MG-B1", "--store", store,
                "--out", str(doc), "--format", "json",
            ]) == 0
            runs.append(json.loads(capsys.readouterr().out))
        first, second = runs
        assert first["orchestration"]["executed"] > 0
        assert second["orchestration"]["executed"] == 0
        assert second["orchestration"]["stored"] == second["orchestration"]["tasks"]
        records = [json.loads(doc.read_text())["records"] for doc in docs]
        assert records[0] and records[1] == records[0]

    def test_out_documents_pass_lint(self, tmp_path, capsys):
        sampled = tmp_path / "sampled.json"
        stored = tmp_path / "stored.json"
        assert main([
            "sample", "7Z-A1", "--target-halfwidth", "0.08",
            "--out", str(sampled),
        ]) == 0
        assert main([
            "campaign", "MG-B1", "--store", str(tmp_path / "store"),
            "--out", str(stored),
        ]) == 0
        capsys.readouterr()
        assert "sampling" in json.loads(sampled.read_text())
        assert main(["lint", str(sampled), str(stored)]) == 0


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["lint", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_duplicate_names_suffixed(self, write_doc, capsys):
        a = write_doc("a.json", detector_to_dict(Detector(CLEAN, name="d")))
        b = write_doc("b.json", detector_to_dict(Detector(FAT, name="d")))
        assert main(["analyze", a, b]) == 0
        assert "d#2" in capsys.readouterr().out

    def test_unknown_format_is_refused(self, write_doc, capsys):
        path = write_doc("doc.json", {"format": "repro.bogus"})
        assert main(["lint", path]) == 2
        err = capsys.readouterr().err
        assert "unsupported document format 'repro.bogus'" in err


class TestServingDocuments:
    def test_invalid_serving_document(self, write_doc, capsys):
        # Serving configurations went with the multi-process serving
        # tier: lint refuses them as an unknown format.
        path = write_doc(
            "topo.json",
            {"format": "repro.serving.config", "workers": 0},
        )
        assert main(["lint", path]) == 2
        err = capsys.readouterr().err
        assert "unsupported document format 'repro.serving.config'" in err
