"""Static injection-space pruning: verdicts, synthesis, audit.

The module's one contract is bit-identity: ``run()`` under
``prune="static"`` must produce the exact record list of the
exhaustive campaign -- ``to_dict()`` equality, canonical order
included -- while executing
only the live and representative points.  These tests check it on a
hand-built target exhibiting every verdict, then property-test it on
randomly generated straight-line and branchy target functions with the
audit running at fraction 1.0 (every analyzer verdict empirically
re-checked, not just sampled).
"""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.analysis.prune import (
    PruneContradiction,
    assemble_records,
    audit_records,
    plan_prune,
)
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.instrument import Harness, Location, VariableSpec
from repro.injection.store import CampaignStore
from repro.observability import names
from repro.orchestration.campaigns import records_by_pair, run_campaign
from repro.orchestration.pool import SerialPool
from repro.targets.base import TargetSystem


class PruneTarget(TargetSystem):
    """Deterministic target exercising every prune verdict.

    * ``raw`` escapes unchanged -> every bit live;
    * ``clip`` is read through ``max(int(.), 10)``: golden 12, so bits
      2 and 3 (-> 8 and 4, both clipped to 10) form one equivalence
      class while bits 0/1 stay live;
    * ``flag`` is only truth-tested: golden 2, so every flip that
      keeps it nonzero is observation-masked (dead), and only bit 1
      (-> 0) is live;
    * ``junk`` is never read -> dead.
    """

    name = "PT"

    @property
    def modules(self):
        return ("Pr",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        return (
            VariableSpec("raw", "int32"),
            VariableSpec("clip", "int32"),
            VariableSpec("flag", "int32"),
            VariableSpec("junk", "int32"),
        )

    def run(self, test_case, harness: Harness):
        raw = test_case + 5
        clip = 12
        flag = 2
        junk = 7
        state = harness.probe(
            "Pr",
            Location.ENTRY,
            {"raw": raw, "clip": clip, "flag": flag, "junk": junk},
        )
        acc = state["raw"]
        acc = acc + max(int(state["clip"]), 10)
        if state["flag"]:
            acc = acc + 1
        return acc

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output

    def module_sources(self, module):
        # Store-eligible: the whole behaviour lives in run/is_failure.
        self.check_module(module)
        return (type(self).run, type(self).is_failure)


def config(**overrides):
    base = dict(
        module="Pr",
        injection_location=Location.ENTRY,
        sample_location=Location.ENTRY,
        test_cases=(0, 1),
        injection_times=(0,),
        bits=(0, 1, 2, 3),
    )
    base.update(overrides)
    return CampaignConfig(**base)


def table(result):
    return [record.to_dict() for record in result.records]


def execute(campaign, plan):
    """``(variable, bit) -> records`` of the plan's executed pairs."""
    pairs = plan.executed_pairs()
    result = run_campaign(campaign, pairs=pairs)
    return records_by_pair(campaign, pairs, result.records)


class TestPlan:
    def test_every_verdict_appears(self):
        plan = plan_prune(Campaign(PruneTarget(), config()))
        counts = plan.counts
        assert counts["live"] >= 4  # all of raw, plus clip bits 0/1
        assert counts["dead"] >= 5  # junk entirely, flag masked bits
        assert counts["representative"] == 1
        assert counts["member"] == 1

    def test_member_names_its_representative(self):
        plan = plan_prune(Campaign(PruneTarget(), config()))
        member = plan.point("clip", 3)
        representative = plan.point("clip", 2)
        assert member.verdict == "member"
        assert member.representative_bit == 2
        assert member.class_id == representative.class_id
        assert representative.verdict == "representative"

    def test_junk_is_dead_with_provenance(self):
        plan = plan_prune(Campaign(PruneTarget(), config()))
        point = plan.point("junk", 0)
        assert point.verdict == "dead"
        assert "never read" in point.reason

    def test_executed_pairs_keep_canonical_order(self):
        plan = plan_prune(Campaign(PruneTarget(), config()))
        pairs = plan.executed_pairs()
        assert pairs == sorted(
            pairs,
            key=lambda pair: (
                [s.name for s in PruneTarget().variables_of("Pr")].index(
                    pair[0]
                ),
                pair[2],
            ),
        )

    def test_to_dict_round_trips_summary(self):
        plan = plan_prune(Campaign(PruneTarget(), config()))
        payload = plan.to_dict()
        assert payload["format"] == "repro.analysis.prune"
        assert payload["summary"]["runs_planned"] == 16 * 2
        assert (
            payload["summary"]["runs_executed"]
            + payload["summary"]["runs_pruned"]
            == payload["summary"]["runs_planned"]
        )


class TestBitIdentity:
    def test_pruned_equals_exhaustive(self):
        exhaustive = Campaign(PruneTarget(), config()).run()
        pruned = Campaign(PruneTarget(), config(prune="static")).run()
        assert table(pruned) == table(exhaustive)
        info = pruned.prune
        assert info["mode"] == "static"
        assert info["runs_pruned"] > 0
        assert info["audit"]["contradictions"] == 0

    def test_config_prune_field_selects_the_mode(self):
        """The config field alone selects pruning, and the selection
        travels with the config: the result records it, its JSON round
        trip prunes again, and the flag override clears it."""
        pruned = Campaign(PruneTarget(), config(prune="static")).run()
        assert pruned.config.prune == "static"
        again = Campaign(
            PruneTarget(), CampaignConfig.from_dict(pruned.config.to_dict())
        ).run()
        assert again.prune["runs_pruned"] == pruned.prune["runs_pruned"] > 0
        cleared = config(prune="static").with_prune("none", 0.5)
        assert (cleared.prune, cleared.audit_fraction) == (None, 0.5)
        assert Campaign(PruneTarget(), cleared).run().prune is None

    def test_full_audit_passes(self):
        result = Campaign(
            PruneTarget(), config(prune="static", audit_fraction=1.0)
        ).run()
        audit = result.prune["audit"]
        assert audit["audited"] == audit["population"] > 0

    def test_pruned_equals_exhaustive_under_pool_and_journal(self, tmp_path):
        pruned = Campaign(PruneTarget(), config(prune="static")).run(
            pool=SerialPool(), store=CampaignStore(tmp_path)
        )
        exhaustive = Campaign(PruneTarget(), config()).run()
        assert table(pruned) == table(exhaustive)
        assert pruned.orchestration["quarantined"] == []

    def test_storeless_run_counts_executed_cells(self):
        campaign = Campaign(PruneTarget(), config(prune="static"))
        with obs.tracing() as tracer:
            result = campaign.run()
        shards = [s for s in tracer.spans if s.name == names.CAMPAIGN_SHARD]
        assert sum(s.counters["runs"] for s in shards) == (
            result.prune["runs_executed"]
        )
        assert result.prune["runs_executed"] == (
            plan_prune(Campaign(PruneTarget(), config())).runs_executed
        )

    def test_journal_shards_shared_with_exhaustive_campaign(self, tmp_path):
        Campaign(PruneTarget(), config()).run(
            pool=SerialPool(), store=CampaignStore(tmp_path)
        )
        pruned = Campaign(PruneTarget(), config(prune="static")).run(
            pool=SerialPool(), store=CampaignStore(tmp_path)
        )
        # Every surviving pair was stored by the exhaustive run:
        # nothing re-executes despite the differing prune settings.
        assert pruned.orchestration["executed"] == 0
        assert pruned.orchestration["stored"] == pruned.orchestration["tasks"]


class TestGuards:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown prune mode"):
            Campaign(PruneTarget(), config(prune="aggressive")).run()

    def test_after_run_subclass_refuses_pruning(self):
        class Observing(Campaign):
            def _after_run(self, harness, record):
                pass

        with pytest.raises(ValueError, match="cannot prune"):
            Observing(PruneTarget(), config(prune="static")).run()

    def test_config_round_trip_without_prune_keys(self):
        payload = config().to_dict()
        assert "prune" not in payload
        assert config() == CampaignConfig.from_dict(payload)

    def test_config_round_trip_with_prune_keys(self):
        original = config(prune="static", audit_fraction=0.2, audit_seed=7)
        restored = CampaignConfig.from_dict(original.to_dict())
        assert restored.prune == "static"
        assert restored.audit_fraction == 0.2
        assert restored.audit_seed == 7


class TestAudit:
    def test_lying_verdict_raises_contradiction(self):
        campaign = Campaign(PruneTarget(), config())
        plan = plan_prune(campaign)
        # Forge the plan: claim a genuinely live point is dead.
        lying = [
            dataclasses.replace(p, verdict="dead", reason="forged")
            if p.variable == "raw" and p.bit == 0
            else p
            for p in plan.points
        ]
        plan.points = lying
        executed = execute(campaign, plan)
        records = assemble_records(campaign, plan, executed)
        with pytest.raises(PruneContradiction, match=r"raw\[bit 0\]"):
            audit_records(campaign, plan, records, fraction=1.0)

    def test_zero_fraction_audits_nothing(self):
        campaign = Campaign(PruneTarget(), config())
        plan = plan_prune(campaign)
        executed = execute(campaign, plan)
        records = assemble_records(campaign, plan, executed)
        audit = audit_records(campaign, plan, records, fraction=0.0)
        assert audit["audited"] == 0

    def test_audit_is_seeded(self):
        campaign = Campaign(PruneTarget(), config())
        plan = plan_prune(campaign)
        executed = execute(campaign, plan)
        records = assemble_records(campaign, plan, executed)
        first = audit_records(campaign, plan, records, 0.5, seed=3)
        second = audit_records(campaign, plan, records, 0.5, seed=3)
        assert first == second


# ----------------------------------------------------------------------
# Property tests: generated targets, full audit.
# ----------------------------------------------------------------------
SOURCE_HEADER = """\
from repro.injection.instrument import Location


def work(harness, tc):
    u = tc % 7 + 1
    v = 12
    w = 3
    s = harness.probe(
        "Hyp", Location.ENTRY, {"u": u, "v": v, "w": w}
    )
    acc = 0
"""

#: Read templates per variable; each is (name, lines) with {n} the key.
READS = {
    "none": (),
    "discard": ('s["{n}"]',),
    "raw": ('acc = acc + s["{n}"]',),
    "abs": ('acc = acc + abs(s["{n}"])',),
    "maxclip": ('acc = acc + max(s["{n}"], 10)',),
    "minclip": ('acc = acc + min(s["{n}"], 0)',),
    "bool": ('if s["{n}"]:', "    acc = acc + 1"),
    "local": ('x{n} = s["{n}"]', "acc = acc + abs(x{n})"),
    "looped": ("for i in range(2):", '    acc = acc + abs(s["{n}"])'),
}


def build_source(reads: dict[str, str], branchy: bool) -> str:
    lines = [SOURCE_HEADER]
    for name, kind in reads.items():
        body = [line.format(n=name) for line in READS[kind]]
        if branchy and body and not body[0].startswith(("if", "for")):
            body = ["if tc > 0:"] + ["    " + line for line in body]
        lines.extend("    " + line for line in body)
    lines.append("    return acc")
    return "\n".join(lines) + "\n"


class GeneratedTarget(TargetSystem):
    name = "HY"

    def __init__(self, work):
        self._work = work

    @property
    def modules(self):
        return ("Hyp",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        return (
            VariableSpec("u", "int32"),
            VariableSpec("v", "int32"),
            VariableSpec("w", "int32"),
        )

    def run(self, test_case, harness: Harness):
        return self._work(harness, test_case)

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output


def compile_target(source: str) -> GeneratedTarget:
    namespace: dict = {}
    exec(compile(source, "<generated>", "exec"), namespace)
    return GeneratedTarget(namespace["work"])


GENERATED_CONFIG = CampaignConfig(
    module="Hyp",
    injection_location=Location.ENTRY,
    sample_location=Location.ENTRY,
    test_cases=(0, 1),
    injection_times=(0,),
    bits=(0, 1, 3, 31),
)

read_kinds = st.sampled_from(sorted(READS))


@given(
    reads=st.fixed_dictionaries(
        {"u": read_kinds, "v": read_kinds, "w": read_kinds}
    ),
    branchy=st.booleans(),
)
@settings(deadline=None, max_examples=30)
def test_generated_targets_prune_bit_identically(reads, branchy):
    """Pruned == exhaustive on arbitrary generated targets, with every
    pruned cell audited: any unsound dead/member verdict raises."""
    source = build_source(reads, branchy)
    exhaustive = Campaign(compile_target(source), GENERATED_CONFIG).run()
    campaign = Campaign(compile_target(source), GENERATED_CONFIG)
    plan = plan_prune(campaign, source=source)
    executed = execute(campaign, plan)
    records = assemble_records(campaign, plan, executed)
    audit_records(campaign, plan, records, fraction=1.0)
    assert [r.to_dict() for r in records] == table(exhaustive)


@given(
    reads=st.fixed_dictionaries(
        {"u": read_kinds, "v": read_kinds, "w": read_kinds}
    ),
)
@settings(deadline=None, max_examples=15)
def test_generated_dead_points_are_empirically_masked(reads):
    """Every analyzer-dead point, re-injected for real, reproduces the
    golden outcome: dead means *provably* masked, not probably."""
    source = build_source(reads, branchy=False)
    campaign = Campaign(compile_target(source), GENERATED_CONFIG)
    plan = plan_prune(campaign, source=source)
    for point in plan.points:
        if point.verdict != "dead":
            continue
        from repro.injection.bitflip import BitFlip

        flip = BitFlip(point.variable, point.kind, point.bit)
        for tc in GENERATED_CONFIG.test_cases:
            golden = plan.golden_runs[tc]
            record = campaign._run_one(flip, 0, tc, golden)
            assert not record.failed
            assert not record.crashed


# ----------------------------------------------------------------------
# The shipped targets: what the analyzer proves is pinned
# ----------------------------------------------------------------------
PRUNE_PINS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "prune_smoke.json").read_text()
)


@pytest.mark.parametrize("name", sorted(PRUNE_PINS))
def test_table2_prune_verdicts_pinned(name):
    """Restructuring a target's run (the loop bodies that moved into
    the step protocol's ``advance``) must not change what the static
    analysis proves.  ``data/prune_smoke.json`` pins every smoke
    dataset's verdict counts and per-point verdicts; regenerate it
    only for an intentional change to a target's probes or the
    analyzer, and say so in the commit."""
    from repro.experiments.datasets import (
        DATASET_SPECS,
        build_target,
        campaign_config,
    )
    from repro.experiments.scale import get_scale

    scale = get_scale("smoke")
    spec = DATASET_SPECS[name]
    plan = plan_prune(
        Campaign(build_target(spec.target, scale), campaign_config(spec, scale))
    )
    verdicts: dict[str, dict[str, list[int]]] = {}
    for point in plan.points:
        assert point.class_id is None and point.representative_bit is None
        verdicts.setdefault(point.variable, {}).setdefault(
            point.verdict, []
        ).append(point.bit)
    assert plan.counts == PRUNE_PINS[name]["counts"]
    assert verdicts == PRUNE_PINS[name]["verdicts"]
