"""Lint framework: rules, severities, reporters, exit codes."""

import json

import pytest

from repro.analysis.lint import (
    Finding,
    LintContext,
    Linter,
    LintRule,
    Severity,
    default_rules,
    exit_code,
    register_rule,
    render_json,
    render_text,
)
from repro.analysis.surface import analyze_source
from repro.core.predicate import And, Comparison, Or
from repro.injection.campaign import CampaignConfig
from repro.injection.instrument import Location

UNSAT = And([Comparison("x", "<=", 1.0), Comparison("x", ">", 5.0)])
FAT = And([Comparison("x", "<=", 5.0), Comparison("x", "<=", 9.0)])
VACUOUS = Or([Comparison("x", "<=", 5.0), Comparison("x", ">", 2.0)])
CLEAN = Comparison("y", ">", 0.0)


def rules_fired(predicate):
    findings = Linter().run(LintContext(predicates={"p": predicate}))
    return {f.rule for f in findings}


class TestPredicateRules:
    def test_unsatisfiable_is_error(self):
        findings = Linter().run(LintContext(predicates={"p": UNSAT}))
        by_rule = {f.rule: f for f in findings}
        assert by_rule["unsatisfiable-clause"].severity == Severity.ERROR
        assert by_rule["constant-predicate"].severity == Severity.ERROR

    def test_redundant_atoms_is_info(self):
        findings = Linter().run(LintContext(predicates={"p": FAT}))
        (finding,) = [f for f in findings if f.rule == "redundant-atoms"]
        assert finding.severity == Severity.INFO

    def test_vacuous_disjunction_warns(self):
        assert "vacuous-disjunction" in rules_fired(VACUOUS)

    def test_clean_predicate_no_findings(self):
        assert rules_fired(CLEAN) == set()

    def test_interpreted_fallback(self):
        from repro.core.composition import _MajorityPredicate

        vote = _MajorityPredicate([CLEAN, Comparison("z", ">", 1.0)])
        assert "interpreted-fallback" in rules_fired(vote)

    def test_excessive_complexity(self):
        big = Or(
            [Comparison(f"v{i}", "<=", float(i)) for i in range(200)]
        )
        assert "excessive-complexity" in rules_fired(big)


class TestRegistryRule:
    def test_duplicate_detector(self):
        from repro.core.detector import Detector
        from repro.runtime.registry import DetectorRegistry

        registry = DetectorRegistry(lint_policy="off")
        registry.publish(Detector(Comparison("x", "<=", 5.0), name="a"))
        registry.publish(Detector(Comparison("x", "<=", 5.0), name="b"))
        findings = Linter(select=["duplicate-detector"]).run(
            LintContext(registry=registry)
        )
        (finding,) = findings
        assert finding.severity == Severity.ERROR
        assert "equivalent" in finding.message


class TestDeadInjectionRule:
    def test_flags_dead_campaign(self):
        source = (
            'def f(h):\n'
            '    s = h.probe("M", Location.ENTRY, {"a": 1, "b": 2})\n'
            '    return s["a"]\n'
        )
        campaign = CampaignConfig(
            module="M",
            injection_location=Location.ENTRY,
            sample_location=Location.ENTRY,
            test_cases=(0,),
            injection_times=(0,),
            variables=("b",),
        )
        context = LintContext(
            surface=analyze_source(source), campaigns={"camp": campaign}
        )
        findings = Linter(select=["dead-injection"]).run(context)
        (finding,) = findings
        assert finding.severity == Severity.WARNING
        assert "dead variable 'b'" in finding.message


class TestUnprunedExhaustiveCampaignRule:
    def _campaign(self, **overrides):
        base = dict(
            module="M",
            injection_location=Location.ENTRY,
            sample_location=Location.ENTRY,
            test_cases=tuple(range(50)),
            injection_times=(0, 1, 2, 3),
            variables=("a", "b"),
            bits=tuple(range(32)),
        )
        base.update(overrides)
        return CampaignConfig(**base)

    def test_flags_large_unpruned_campaign(self):
        # 50 x 4 x 2 x 32 = 12800 estimated runs, over the 10000 budget.
        context = LintContext(campaigns={"big": self._campaign()})
        findings = Linter(select=["unpruned-exhaustive-campaign"]).run(context)
        (finding,) = findings
        assert finding.severity == Severity.WARNING
        assert "12800" in finding.message
        assert "prune" in finding.message

    def test_pruned_campaign_is_fine(self):
        pruned = self._campaign(prune="static")
        context = LintContext(campaigns={"big": pruned})
        assert (
            Linter(select=["unpruned-exhaustive-campaign"]).run(context) == []
        )

    def test_small_campaign_is_fine(self):
        small = self._campaign(test_cases=(0, 1), bits=(0, 1))
        context = LintContext(campaigns={"small": small})
        assert (
            Linter(select=["unpruned-exhaustive-campaign"]).run(context) == []
        )


class TestPruneWithoutAuditRule:
    def _campaign(self, **overrides):
        base = dict(
            module="M",
            injection_location=Location.ENTRY,
            sample_location=Location.ENTRY,
            test_cases=(0, 1),
            injection_times=(0,),
            variables=("a",),
            bits=(0, 1),
        )
        base.update(overrides)
        return CampaignConfig(**base)

    def test_flags_disabled_audit(self):
        config = self._campaign(prune="static", audit_fraction=0.0)
        context = LintContext(campaigns={"c": config})
        findings = Linter(select=["prune-without-audit"]).run(context)
        (finding,) = findings
        assert finding.severity == Severity.WARNING
        assert "audit" in finding.message

    def test_default_audit_is_fine(self):
        config = self._campaign(prune="static")
        context = LintContext(campaigns={"c": config})
        assert Linter(select=["prune-without-audit"]).run(context) == []

    def test_exhaustive_campaign_is_fine(self):
        context = LintContext(campaigns={"c": self._campaign()})
        assert Linter(select=["prune-without-audit"]).run(context) == []


class TestStaleCampaignStoreRule:
    def _key(self, generation=0):
        return {
            "schema": 1,
            "target": "T",
            "module_fingerprint": f"mod{generation}",
            "failure_fingerprint": "fail0",
            "probes": {"injection": [["a", "int32"]], "sample": []},
            "config": {"module": "M"},
            "pairs": [["a", "int32", 0]],
        }

    def _store(self, tmp_path):
        from repro.injection.store import CampaignStore

        return CampaignStore(tmp_path / "store")

    def test_flags_store_with_stale_generations(self, tmp_path):
        store = self._store(tmp_path)
        store.put("aaaa", self._key(0), [])
        store.put("bbbb", self._key(1), [])  # supersedes generation 0
        context = LintContext(stores={"c": store})
        (finding,) = Linter(select=["stale-campaign-store"]).run(context)
        assert finding.severity == Severity.WARNING
        assert "stale" in finding.message
        assert "gc" in finding.message

    def test_accepts_store_path_reference(self, tmp_path):
        store = self._store(tmp_path)
        store.put("aaaa", self._key(0), [])
        store.put("bbbb", self._key(1), [])
        context = LintContext(stores={"c": str(store.root)})
        (finding,) = Linter(select=["stale-campaign-store"]).run(context)
        assert finding.severity == Severity.WARNING

    def test_fresh_store_is_clean(self, tmp_path):
        store = self._store(tmp_path)
        store.put("aaaa", self._key(0), [])
        context = LintContext(stores={"c": store})
        assert Linter(select=["stale-campaign-store"]).run(context) == []

    def test_missing_store_warns(self, tmp_path):
        context = LintContext(stores={"c": str(tmp_path / "absent")})
        (finding,) = Linter(select=["stale-campaign-store"]).run(context)
        assert finding.severity == Severity.WARNING


class TestDeploymentRules:
    def _plan(self, budget_s=1e-5, names=("narrow", "wide")):
        from repro.portfolio.plan import DeploymentPlan, PlannedDetector

        planned = tuple(
            PlannedDetector(name=name, version=1, coverage=0.5, cost_s=2e-6)
            for name in sorted(names)
        )
        return DeploymentPlan(
            name="plan", budget_s=budget_s, coverage=0.5,
            cost_s=sum(d.cost_s for d in planned), solver="manual",
            detectors=planned,
        )

    def test_overbudget_is_error(self):
        context = LintContext(plans={"plan": self._plan(budget_s=1e-6)})
        (finding,) = Linter(select=["overbudget-deployment"]).run(context)
        assert finding.severity == Severity.ERROR
        assert "budget" in finding.message

    def test_overbudget_recomputes_cost_from_detectors(self):
        # A plan whose declared total understates the per-detector sum
        # is still over budget.
        plan = self._plan(budget_s=3e-6)
        object.__setattr__(plan, "cost_s", 1e-7)
        context = LintContext(plans={"plan": plan})
        assert Linter(select=["overbudget-deployment"]).run(context) != []

    def test_within_budget_is_clean(self):
        context = LintContext(plans={"plan": self._plan(budget_s=1e-5)})
        assert Linter(select=["overbudget-deployment"]).run(context) == []

    def test_redundant_pair_warns_via_context_predicates(self):
        narrow = And([Comparison("v", ">", 5.0), Comparison("w", ">", 0.0)])
        wide = Comparison("v", ">", 5.0)
        context = LintContext(
            predicates={"narrow": narrow, "wide": wide},
            plans={"plan": self._plan()},
        )
        (finding,) = Linter(select=["redundant-deployment"]).run(context)
        assert finding.severity == Severity.WARNING
        assert "narrow" in finding.message and "wide" in finding.message

    def test_independent_detectors_are_clean(self):
        context = LintContext(
            predicates={
                "narrow": Comparison("v", ">", 5.0),
                "wide": Comparison("u", ">", 0.0),
            },
            plans={"plan": self._plan()},
        )
        assert Linter(select=["redundant-deployment"]).run(context) == []

    def test_unresolvable_predicates_are_skipped(self):
        # No registry, no context predicates: the rule cannot prove
        # anything and must stay silent rather than crash.
        context = LintContext(plans={"plan": self._plan()})
        assert Linter(select=["redundant-deployment"]).run(context) == []


class TestLinter:
    def test_findings_sorted_most_severe_first(self):
        findings = Linter().run(
            LintContext(predicates={"bad": UNSAT, "fat": FAT})
        )
        severities = [f.severity for f in findings]
        assert severities == sorted(severities, reverse=True)

    def test_select_and_ignore(self):
        context = LintContext(predicates={"bad": UNSAT})
        only = Linter(select=["unsatisfiable-clause"]).run(context)
        assert {f.rule for f in only} == {"unsatisfiable-clause"}
        without = Linter(ignore=["unsatisfiable-clause"]).run(context)
        assert "unsatisfiable-clause" not in {f.rule for f in without}

    def test_unknown_select_rejected(self):
        with pytest.raises(ValueError, match="unknown rules"):
            Linter(select=["no-such-rule"])

    def test_pluggable_rule(self):
        class NamingRule(LintRule):
            name = "test-naming"

            def check(self, context):
                for subject in context.predicates:
                    if not subject.islower():
                        yield Finding(
                            self.name, Severity.INFO, subject,
                            "detector names should be lowercase",
                        )

        findings = Linter(rules=[NamingRule()]).run(
            LintContext(predicates={"Loud": CLEAN})
        )
        assert [f.rule for f in findings] == ["test-naming"]

    def test_register_rule_requires_name(self):
        with pytest.raises(ValueError):

            @register_rule
            class Nameless(LintRule):
                pass

    def test_default_rules_cover_catalog(self):
        names = {rule.name for rule in default_rules()}
        assert {
            "unsatisfiable-clause",
            "constant-predicate",
            "tautological-clause",
            "subsumed-branch",
            "vacuous-disjunction",
            "redundant-atoms",
            "interpreted-fallback",
            "excessive-complexity",
            "duplicate-detector",
            "dead-injection",
            "unpruned-exhaustive-campaign",
            "prune-without-audit",
            "overbudget-deployment",
            "redundant-deployment",
            "stale-campaign-store",
        } <= names


class TestReporters:
    def test_render_text(self):
        findings = Linter().run(LintContext(predicates={"bad": UNSAT}))
        text = render_text(findings)
        assert "error: bad:" in text
        assert "finding(s)" in text
        assert render_text([]) == "no findings"

    def test_render_json(self):
        findings = Linter().run(LintContext(predicates={"bad": UNSAT}))
        payload = json.loads(render_json(findings))
        assert payload["count"] == len(findings)
        assert payload["findings"][0]["severity"] == "error"

    def test_exit_code_thresholds(self):
        findings = [Finding("r", Severity.WARNING, "s", "m")]
        assert exit_code(findings, "error") == 0
        assert exit_code(findings, "warning") == 1
        assert exit_code(findings, "info") == 1
        assert exit_code(findings, "never") == 0
        assert exit_code([], "info") == 0

    def test_severity_parse(self):
        assert Severity.parse("error") is Severity.ERROR
        with pytest.raises(ValueError):
            Severity.parse("fatal")
