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

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            main(["orchestrate", "XX-Z9", "--scale", "smoke"])


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


class TestServingDocuments:
    def config(self, shed_after_s):
        return {
            "format": "repro.serving.config",
            "version": 1,
            "workers": 2,
            "shed_after_s": shed_after_s,
        }

    def test_unbounded_ring_warns(self, write_doc, capsys):
        path = write_doc("topo.json", self.config(None))
        assert main(["lint", path, "--fail-on", "warning"]) == 1
        assert "unbounded-serving-ring" in capsys.readouterr().out

    def test_bounded_ring_passes(self, write_doc):
        path = write_doc("topo.json", self.config(0.25))
        assert main(["lint", path, "--fail-on", "warning"]) == 0

    def test_invalid_serving_document(self, write_doc, capsys):
        path = write_doc(
            "topo.json",
            {"format": "repro.serving.config", "workers": 0},
        )
        assert main(["lint", path]) == 2
        assert "invalid serving configuration" in capsys.readouterr().err


class TestServe:
    @pytest.fixture
    def registry_doc(self, write_doc):
        registry = DetectorRegistry(lint_policy="off")
        registry.publish(Detector(CLEAN, name="ok"))
        return write_doc("registry.json", registry.to_dict())

    def test_inline_serve_text(self, registry_doc, capsys):
        assert main(
            ["serve", registry_doc, "--inline", "--workers", "2",
             "--events", "300"]
        ) == 0
        out = capsys.readouterr().out
        assert "300 events -> 300 processed, 0 shed" in out
        assert "ok:" in out

    def test_serve_json_report(self, registry_doc, capsys):
        assert main(
            ["serve", registry_doc, "--inline", "--events", "200",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accounted"] is True
        assert payload["submitted"] == 200
        assert payload["load"]["events"] == 200
        assert "ok" in payload["detections"]

    def test_serve_gates_on_slo(self, registry_doc, capsys):
        # An absurd p99 budget (1 ns) must fail the run.
        assert main(
            ["serve", registry_doc, "--inline", "--events", "200",
             "--slo-p99", "1e-9"]
        ) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_serve_multiprocess(self, registry_doc, capsys):
        assert main(
            ["serve", registry_doc, "--workers", "2", "--events", "500"]
        ) == 0
        assert "500 processed" in capsys.readouterr().out

    def test_serve_records_trace(self, registry_doc, tmp_path, capsys):
        trace = tmp_path / "serve-trace.jsonl"
        assert main(
            ["serve", registry_doc, "--inline", "--events", "100",
             "--trace", str(trace)]
        ) == 0
        from repro import observability as obs

        names = {span.name for span in obs.load_trace(trace)}
        assert "phase.serve" in names
        assert "serve.flush" in names

    def test_serve_invalid_config(self, registry_doc, capsys):
        assert main(["serve", registry_doc, "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
