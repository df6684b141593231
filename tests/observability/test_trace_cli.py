"""``repro trace`` subcommands: record, summarize, export."""

import json

import pytest

from repro import observability as obs
from repro.cli import main


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One serial smoke recording shared by the read-only subcommands."""
    path = tmp_path_factory.mktemp("cli") / "trace.jsonl"
    code = main(["trace", "record", "MG-B1", "--out", str(path)])
    assert code == 0
    return path


class TestRecord:
    def test_prints_summary_and_writes_journal(self, recorded, capsys):
        # The fixture already ran the command; check its artefact.
        spans = obs.load_trace(recorded)
        assert spans
        assert {record.name for record in spans} >= {
            "orchestrate.run", "phase.campaign", "phase.refine"
        }

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(
            ["trace", "record", "MG-B1", "--out", str(path), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["dataset"] == "MG-B1"
        assert payload["summary"]["root"] == "orchestrate.run"
        assert payload["summary"]["phases"].keys() == {
            "campaign", "baseline", "refine", "finalize"
        }


class TestSummarize:
    def test_text(self, recorded, capsys):
        assert main(["trace", "summarize", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "root orchestrate.run" in out
        assert "% of wall" in out

    def test_json(self, recorded, capsys):
        assert main(
            ["trace", "summarize", str(recorded), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.9 <= payload["phase_coverage"] <= 1.1
        assert payload["names"]["crossval"]["count"] >= 1


class TestExport:
    def test_default_output_path(self, recorded, capsys):
        assert main(["trace", "export", str(recorded)]) == 0
        out_path = f"{recorded}.chrome.json"
        payload = json.loads(open(out_path, encoding="utf-8").read())
        assert obs.validate_chrome_trace(payload) > 0

    def test_explicit_output_path(self, recorded, tmp_path, capsys):
        out = tmp_path / "export.json"
        assert main(["trace", "export", str(recorded), "-o", str(out)]) == 0
        obs.validate_chrome_trace(json.loads(out.read_text()))
