"""Acceptance: a traced, parallel `repro orchestrate` is unchanged.

The tentpole contract, end to end: running an orchestrated dataset
with tracing on, at ``--jobs 4``, is bit-identical to the untraced run;
the recorded trace's ``phase.*`` totals cover the root span's wall
clock to within 10%; and the Chrome export of that trace validates.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from repro import observability as obs
from repro.cli import main


def _orchestrate():
    """``repro orchestrate MG-B1 --jobs 4 --format json``, parsed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["orchestrate", "MG-B1", "--jobs", "4", "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _result_fields(report):
    """The result-bearing fields (timings legitimately vary)."""
    campaign = dict(report["campaign"])
    campaign.pop("jobs", None)
    return {
        "campaign": campaign,
        "baseline": report["baseline"],
        "refined": report["refined"],
        "best_plan": report["best_plan"],
    }


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "orchestrate.jsonl"
    with obs.tracing_to(path):
        report = _orchestrate()
    return report, obs.load_trace(path)


class TestTracedOrchestrate:
    def test_bit_identical_to_untraced(self, traced_run):
        traced_report, _ = traced_run
        untraced = _orchestrate()
        assert _result_fields(untraced) == _result_fields(traced_report)

    def test_workers_contributed_spans(self, traced_run):
        _, spans = traced_run
        pids = {record.pid for record in spans}
        assert len(pids) >= 2  # main + at least one pool worker
        worker_tasks = [r for r in spans if r.name == "orchestration.task"]
        assert worker_tasks
        assert {r.name for r in spans} >= {
            "orchestrate.run", "phase.campaign", "phase.baseline",
            "phase.refine", "campaign.shard", "refine.trial",
        }

    def test_phase_totals_within_ten_percent_of_wall_clock(self, traced_run):
        _, spans = traced_run
        summary = obs.summarize(spans)
        assert summary.root == "orchestrate.run"
        assert summary.wall_s > 0
        assert abs(summary.phase_coverage - 1.0) <= 0.10, summary.phases

    def test_chrome_export_validates(self, traced_run, tmp_path):
        _, spans = traced_run
        payload = obs.chrome_trace(spans)
        assert obs.validate_chrome_trace(payload) == len(spans) + len(
            {record.pid for record in spans}
        )
        assert obs.write_chrome_trace(spans, tmp_path / "t.json") > 0

    def test_merge_is_deterministic(self, traced_run):
        """Re-sorting the merged spans is a fixed point."""
        _, spans = traced_run
        again = obs.sort_spans(list(reversed(spans)))
        assert again == spans

    def test_span_tree_is_well_formed(self, traced_run):
        _, spans = traced_run
        by_process = {}
        for record in spans:
            by_process.setdefault(record.pid, {})[record.span_id] = record
        for pid, records in by_process.items():
            for record in records.values():
                if record.parent_id is None:
                    continue
                parent = records.get(record.parent_id)
                assert parent is not None, (pid, record)
                # A child lies within its parent's window (1ms slack for
                # the wall-anchor rounding between clocks reads).
                assert record.start_ns >= parent.start_ns - 1_000_000
                assert (
                    record.start_ns + record.duration_ns
                    <= parent.start_ns + parent.duration_ns + 1_000_000
                )

    def test_report_sane(self, traced_run):
        report, _ = traced_run
        assert report["jobs"] == 4
        assert report["campaign"]["runs"] > 0
        assert np.isfinite(report["baseline"]["auc"])
