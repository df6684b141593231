"""The low-sample-stratum lint rule and campaign-document loading."""

import json

from repro.analysis.lint import LintContext, Linter, Severity
from repro.injection.sampling import (
    ClassEstimate,
    SamplingReport,
    SamplingSpec,
    StratumEstimate,
)

SPEC = SamplingSpec(target_halfwidth=0.05, min_cells=32)


def classes(fail_low, fail_high, fail_rate=None):
    """A three-class estimate table; ok/crash are tight and far from
    any boundary, fail carries the interval under test."""
    rate = fail_rate if fail_rate is not None else (fail_low + fail_high) / 2
    return {
        "ok": ClassEstimate(count=90, rate=0.9, low=0.88, high=0.92),
        "fail": ClassEstimate(
            count=int(rate * 100), rate=rate, low=fail_low, high=fail_high
        ),
        "crash": ClassEstimate(count=0, rate=0.0, low=0.0, high=0.02),
    }


def stratum(**overrides):
    base = dict(
        stratum="x",
        population=1000,
        sampled=200,
        classes=classes(0.08, 0.12),
        method="wilson",
        confidence=0.95,
        target_halfwidth=0.05,
        stopped="converged",
    )
    base.update(overrides)
    return StratumEstimate(**base)


def report(strata, mined=False, spec=SPEC):
    sampled = sum(s.sampled for s in strata)
    return SamplingReport(
        spec=spec,
        strata=strata,
        cells_total=sum(s.population for s in strata),
        cells_sampled=sampled,
        rounds=1,
        mined=mined,
    )


def findings_for(report_obj):
    context = LintContext(sampling={"doc": report_obj})
    return [
        f
        for f in Linter().run(context)
        if f.rule == "low-sample-stratum"
    ]


class TestLowSampleStratumRule:
    def test_converged_stratum_is_silent(self):
        assert findings_for(report([stratum()])) == []

    def test_under_floor_warns(self):
        (finding,) = findings_for(
            report([stratum(sampled=12, stopped="capped")])
        )
        assert finding.severity == Severity.WARNING
        assert "12 sampled" in finding.message
        assert "32-cell floor" in finding.message

    def test_unconverged_width_warns(self):
        (finding,) = findings_for(
            report(
                [stratum(classes=classes(0.05, 0.35), stopped="capped")]
            )
        )
        assert finding.severity == Severity.WARNING
        assert "did not converge" in finding.message

    def test_exhausted_stratum_is_exempt(self):
        # Fully-enumerated strata are exact: no interval can improve
        # them, however few cells the space held.
        degenerate = stratum(
            population=10,
            sampled=10,
            classes=classes(0.05, 0.95),
            stopped="exhausted",
        )
        assert findings_for(report([degenerate])) == []
        assert findings_for(report([degenerate], mined=True)) == []
        empty = stratum(population=0, sampled=0, stopped="exhausted")
        assert findings_for(report([empty])) == []

    def test_straddling_boundary_is_error_only_when_mined(self):
        straddling = stratum(classes=classes(0.35, 0.65), stopped="capped")
        unmined = findings_for(report([straddling]))
        assert {f.severity for f in unmined} == {Severity.WARNING}
        mined = findings_for(report([straddling], mined=True))
        errors = [f for f in mined if f.severity == Severity.ERROR]
        (finding,) = errors
        assert "straddles the 0.50 decision boundary" in finding.message
        assert "'fail'" in finding.message

    def test_boundary_comes_from_the_spec(self):
        spec = SamplingSpec(target_halfwidth=0.05, min_cells=32, boundary=0.1)
        near_tenth = stratum(classes=classes(0.08, 0.12))
        findings = findings_for(report([near_tenth], mined=True, spec=spec))
        assert [f.severity for f in findings] == [Severity.ERROR]

    def test_dict_payloads_are_accepted(self):
        # The CLI hands the rule raw JSON payloads, not live objects.
        payload = report(
            [stratum(sampled=12, stopped="capped")]
        ).to_dict()
        context = LintContext(sampling={"doc": json.loads(json.dumps(payload))})
        findings = [
            f
            for f in Linter().run(context)
            if f.rule == "low-sample-stratum"
        ]
        assert [f.severity for f in findings] == [Severity.WARNING]

    def test_multiple_strata_report_each_weakness(self):
        findings = findings_for(
            report(
                [
                    stratum(stratum="a"),
                    stratum(stratum="b", sampled=5, stopped="capped"),
                    stratum(
                        stratum="c",
                        classes=classes(0.1, 0.4),
                        stopped="capped",
                    ),
                ]
            )
        )
        assert len(findings) == 2
        assert "stratum 'b'" in findings[0].message or "stratum 'b'" in findings[1].message


class TestCampaignDocumentLoading:
    def test_cli_lints_sampled_campaign_documents(self, tmp_path, capsys):
        from repro.cli import main

        document = {
            "format": "repro.injection.campaign",
            "config": {
                "module": "Mix",
                "injection_location": "entry",
                "sample_location": "entry",
                "test_cases": [0],
                "injection_times": [0],
            },
            "sampling": report(
                [stratum(sampled=12, stopped="capped")]
            ).to_dict(),
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(document))
        code = main(["lint", str(path), "--format", "json"])
        findings = json.loads(capsys.readouterr().out)["findings"]
        ours = [f for f in findings if f["rule"] == "low-sample-stratum"]
        assert len(ours) == 1
        assert ours[0]["severity"] == "warning"
        assert ours[0]["subject"] == "campaign"
        assert code in (0, 1)  # warnings never exit 2

    def test_clean_sampled_document_has_no_findings(self, tmp_path, capsys):
        from repro.cli import main

        document = {
            "format": "repro.injection.campaign",
            "config": {
                "module": "Mix",
                "injection_location": "entry",
                "sample_location": "entry",
                "test_cases": [0],
                "injection_times": [0],
            },
            "sampling": report([stratum()]).to_dict(),
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(document))
        main(["lint", str(path), "--format", "json"])
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert [f for f in findings if f["rule"] == "low-sample-stratum"] == []
