"""Static injection-space pruning: prove injections dead or equivalent.

The exhaustive campaign loop runs variable x bit x time x test-case.
:func:`plan_prune` classifies every ``(variable, bit)`` injection
point *before the campaign runs*, using the dataflow verdicts of
:mod:`repro.analysis.dataflow` plus the golden runs' recorded values:

* **dead** -- the variable is never observed (dataflow ``dead``), or
  every observation channel maps the flipped value to the same output
  as the golden value (*observation-masked*): the run's outcome is
  the golden outcome by construction, so its record is synthesized
  from the golden run without executing anything;
* **equivalent** -- two or more bits of the same variable produce
  identical channel signatures across every (test case, injection
  time): one *representative* (the lowest bit) is injected for real
  and the *members'* records are synthesized from its outcomes;
* **live** -- everything else: injected exactly as before.

Soundness contract (the bit-identity contract of PRs 4-6, one layer
up): a pruned campaign's record list is **bit-identical** to the
exhaustive campaign's -- same canonical order, same ``to_dict()``
encoding of every record, including the raw corrupted value embedded
in same-probe samples (synthesis re-applies each member's own flip to
the golden value, never copies the representative's).  The **audit**
re-injects a seeded random sample of pruned cells for real and raises
:class:`PruneContradiction` on any mismatch, so a soundness bug in
the static analysis fails the campaign loudly instead of skewing the
mined detectors quietly.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import random
from collections.abc import Mapping

from repro.analysis.dataflow import ModuleDataflow, analyze_dataflow
from repro.analysis.dataflow.analyzer import analyze_dataflow_package
from repro.analysis.dataflow.lattice import signature
from repro.injection.bitflip import BitFlip, flip_bits_batch
from repro.injection.campaign import Campaign, CampaignConfig, ExperimentRecord
from repro.injection.golden import GoldenRun, golden_runs_for
from repro.injection.instrument import Probe, StateSample

__all__ = [
    "PointPlan",
    "PrunePlan",
    "PruneContradiction",
    "plan_prune",
    "all_live",
    "assemble_records",
    "audit_records",
]

#: Verdicts that still execute for real.
EXECUTED_VERDICTS = ("live", "representative")
#: Verdicts whose records are synthesized.
PRUNED_VERDICTS = ("dead", "member")


class PruneContradiction(RuntimeError):
    """An audited pruned point's real outcome contradicted the plan."""


@dataclasses.dataclass(frozen=True)
class PointPlan:
    """Verdict and provenance for one (variable, bit) injection point."""

    variable: str
    kind: str
    bit: int
    verdict: str  # "live" | "dead" | "representative" | "member"
    reason: str
    class_id: str | None = None
    representative_bit: int | None = None

    def to_dict(self) -> dict:
        payload = {
            "variable": self.variable,
            "kind": self.kind,
            "bit": self.bit,
            "verdict": self.verdict,
            "reason": self.reason,
        }
        if self.class_id is not None:
            payload["class_id"] = self.class_id
        if self.representative_bit is not None:
            payload["representative_bit"] = self.representative_bit
        return payload


@dataclasses.dataclass
class PrunePlan:
    """Per-point verdicts for one campaign, in canonical pair order."""

    target_name: str
    config: CampaignConfig
    points: list[PointPlan]
    variable_reasons: dict[str, str]
    golden_runs: dict[int, GoldenRun] = dataclasses.field(
        default_factory=dict, repr=False
    )

    @property
    def runs_per_point(self) -> int:
        return len(self.config.injection_times) * len(self.config.test_cases)

    @property
    def counts(self) -> dict[str, int]:
        counts = {"live": 0, "dead": 0, "representative": 0, "member": 0}
        for point in self.points:
            counts[point.verdict] += 1
        return counts

    @property
    def pruned_fraction(self) -> float:
        if not self.points:
            return 0.0
        pruned = sum(1 for p in self.points if p.verdict in PRUNED_VERDICTS)
        return pruned / len(self.points)

    @property
    def runs_planned(self) -> int:
        return len(self.points) * self.runs_per_point

    @property
    def runs_executed(self) -> int:
        executed = sum(1 for p in self.points if p.verdict in EXECUTED_VERDICTS)
        return executed * self.runs_per_point

    @property
    def runs_pruned(self) -> int:
        return self.runs_planned - self.runs_executed

    def executed_pairs(self) -> list[tuple[str, str, int]]:
        """The (variable, kind, bit) pairs that still inject for real,
        in canonical order -- the exact shard-planner input."""
        return [
            (p.variable, p.kind, p.bit)
            for p in self.points
            if p.verdict in EXECUTED_VERDICTS
        ]

    def point(self, variable: str, bit: int) -> PointPlan | None:
        for p in self.points:
            if p.variable == variable and p.bit == bit:
                return p
        return None

    def to_dict(self) -> dict:
        return {
            "format": "repro.analysis.prune",
            "target": self.target_name,
            "config": self.config.to_dict(),
            "variables": dict(self.variable_reasons),
            "points": [p.to_dict() for p in self.points],
            "summary": {
                **self.counts,
                "runs_planned": self.runs_planned,
                "runs_executed": self.runs_executed,
                "runs_pruned": self.runs_pruned,
                "pruned_fraction": self.pruned_fraction,
            },
        }


def _dataflow_for_target(target) -> ModuleDataflow:
    """Dataflow report for the package defining ``target``'s class."""
    module = importlib.import_module(type(target).__module__)
    package = module.__package__ or module.__name__
    return analyze_dataflow_package(package)


def _golden_value(
    golden: GoldenRun, probe: Probe, occurrence: int, name: str
):
    """``(found, value)`` of one variable at one golden probe occurrence."""
    sample = golden.sample_at(probe, occurrence)
    if sample is not None and name in sample.variables:
        return True, sample.variables[name]
    return False, None


def _classify_variable(
    campaign: Campaign,
    spec,
    bits: tuple[int, ...],
    flow,
    golden_runs: dict[int, GoldenRun],
) -> tuple[list[PointPlan], str]:
    """PointPlans for one variable's bits, plus a provenance line."""
    config = campaign.config
    probe = config.injection_probe

    def all_live(reason: str) -> tuple[list[PointPlan], str]:
        points = [
            PointPlan(spec.name, spec.kind, bit, "live", reason) for bit in bits
        ]
        return points, f"live: {reason}"

    if flow is None:
        return all_live("no dataflow evidence for this probe")
    if flow.status == "live":
        return all_live(flow.reason or "raw value escapes")

    # Both dead and observed verdicts synthesize records, which is only
    # valid when the injection itself succeeds: the variable must be
    # present in the golden state at every injectable occurrence.
    cells: list[tuple[int, int]] = []  # (test_case, time) with injection
    for tc in config.test_cases:
        golden = golden_runs[tc]
        occurrences = len(golden.samples_at(probe))
        for t in config.injection_times:
            if t >= occurrences:
                continue
            found, _ = _golden_value(golden, probe, t, spec.name)
            if not found:
                return all_live(
                    f"absent from golden state at occurrence {t} "
                    f"(test case {tc})"
                )
            cells.append((tc, t))

    if flow.status == "dead":
        reason = flow.reason or "never observed"
        points = [
            PointPlan(spec.name, spec.kind, bit, "dead", reason) for bit in bits
        ]
        return points, f"dead: {reason}"

    # Observed: group bits by channel signature over every injected cell.
    channels = flow.channels
    signatures: dict[int, list[tuple]] = {bit: [] for bit in bits}
    golden_sig: list[tuple] = []
    for tc, t in cells:
        _, value = _golden_value(golden_runs[tc], probe, t, spec.name)
        base = signature(channels, value)
        if base is None:
            return all_live("channel evaluation failed on golden value")
        golden_sig.append(base)
        # One packed XOR flips the value across every bit position at
        # once (bit-identical to per-bit flip_bit; see bitflip.py).
        for bit, flipped in zip(bits, flip_bits_batch(value, spec.kind, bits)):
            sig = signature(channels, flipped)
            if sig is None:
                return all_live(
                    f"channel evaluation failed on bit {bit} flip"
                )
            signatures[bit].append(sig)
    frozen = {bit: tuple(signatures[bit]) for bit in bits}
    golden_key = tuple(golden_sig)

    groups: dict[tuple, list[int]] = {}
    for bit in bits:
        groups.setdefault(frozen[bit], []).append(bit)

    described = ", ".join(str(c) for c in channels[:3])
    if len(channels) > 3:
        described += f", ... ({len(channels)} total)"
    points_by_bit: dict[int, PointPlan] = {}
    class_index = 0
    n_dead = n_classes = 0
    for sig_key, group in sorted(
        groups.items(), key=lambda item: min(item[1])
    ):
        if sig_key == golden_key:
            n_dead += len(group)
            for bit in group:
                points_by_bit[bit] = PointPlan(
                    spec.name,
                    spec.kind,
                    bit,
                    "dead",
                    f"observation-masked on channels [{described}]",
                )
        elif len(group) >= 2:
            class_id = f"{config.module}@{config.injection_location}/{spec.name}/c{class_index}"
            class_index += 1
            n_classes += 1
            representative = min(group)
            points_by_bit[representative] = PointPlan(
                spec.name,
                spec.kind,
                representative,
                "representative",
                f"represents {len(group) - 1} equal-signature bit(s)",
                class_id=class_id,
            )
            for bit in group:
                if bit == representative:
                    continue
                points_by_bit[bit] = PointPlan(
                    spec.name,
                    spec.kind,
                    bit,
                    "member",
                    f"signature equal to bit {representative} on channels "
                    f"[{described}]",
                    class_id=class_id,
                    representative_bit=representative,
                )
        else:
            points_by_bit[group[0]] = PointPlan(
                spec.name,
                spec.kind,
                group[0],
                "live",
                "unique observation signature",
            )
    points = [points_by_bit[bit] for bit in bits]
    return points, (
        f"observed via {len(channels)} channel(s): {n_dead} masked bit(s), "
        f"{n_classes} equivalence class(es)"
    )


def plan_prune(
    campaign: Campaign,
    *,
    dataflow: ModuleDataflow | None = None,
    source: str | None = None,
) -> PrunePlan:
    """Classify every injection point of ``campaign``.

    ``dataflow``/``source`` override how the target's code is found
    (defaults to analysing the package defining the target's class).
    """
    config = campaign.config
    if dataflow is None:
        if source is not None:
            dataflow = analyze_dataflow(source, "<target>")
        else:
            dataflow = _dataflow_for_target(campaign.target)
    golden_runs = golden_runs_for(campaign.target, config.test_cases)
    points: list[PointPlan] = []
    variable_reasons: dict[str, str] = {}
    for spec in campaign._targeted_specs():
        bits = campaign._bits_for(spec)
        flow = dataflow.flow(
            config.module, str(config.injection_location), spec.name
        )
        spec_points, reason = _classify_variable(
            campaign, spec, bits, flow, golden_runs
        )
        points.extend(spec_points)
        variable_reasons[spec.name] = reason
    return PrunePlan(
        target_name=campaign.target.name,
        config=config,
        points=points,
        variable_reasons=variable_reasons,
        golden_runs=golden_runs,
    )


def all_live(campaign: Campaign) -> PrunePlan:
    """The plan of an unpruned campaign: every ``(variable, bit)`` pair
    executes.  It needs no dataflow analysis and no golden runs, and
    :func:`assemble_records` over it is the concatenation of the
    executed pairs' records in canonical order."""
    points = [
        PointPlan(spec.name, spec.kind, bit, "live", "not pruned")
        for spec in campaign._targeted_specs()
        for bit in campaign._bits_for(spec)
    ]
    return PrunePlan(campaign.target.name, campaign.config, points, {})


def _synthesize_dead(
    campaign: Campaign, flip: BitFlip, injection_time: int, test_case: int,
    golden: GoldenRun,
) -> ExperimentRecord:
    """Record of a dead injection, from the golden run alone.

    A dead flip leaves control flow and every downstream value exactly
    golden; the only divergence is the corrupted value itself inside a
    same-probe sample taken at the injection occurrence.
    """
    config = campaign.config
    injection_samples = golden.samples_at(config.injection_probe)
    injected = injection_time < len(injection_samples)
    chosen = next(
        (
            s
            for s in golden.samples_at(config.sample_probe)
            if s.occurrence >= injection_time
        ),
        None,
    )
    sample_state: StateSample | None = None
    sample: Mapping | None = None
    if chosen is not None:
        variables = dict(chosen.variables)
        if (
            injected
            and config.sample_probe == config.injection_probe
            and chosen.occurrence == injection_time
        ):
            variables[flip.variable] = flip.apply(variables[flip.variable])
        sample_state = StateSample(chosen.probe, chosen.occurrence, variables)
        sample = variables
    return ExperimentRecord(
        test_case=test_case,
        flip=flip,
        injection_time=injection_time,
        sample=sample,
        failed=campaign.target.is_failure(golden.output, golden.output),
        crashed=False,
        temporal_impact=max(0, len(injection_samples) - injection_time),
        deviated=campaign._deviated(golden, sample_state),
    )


def _synthesize_member(
    campaign: Campaign,
    flip: BitFlip,
    injection_time: int,
    golden: GoldenRun,
    representative: ExperimentRecord,
) -> ExperimentRecord:
    """Record of an equivalence-class member from its representative.

    Equal channel signatures make the runs byte-for-byte identical
    except for the raw corrupted value inside a same-probe sample at
    the injection occurrence, which is re-derived by applying the
    member's own flip to the golden value.
    """
    config = campaign.config
    injection_samples = golden.samples_at(config.injection_probe)
    injected = injection_time < len(injection_samples)
    sample = representative.sample
    deviated = representative.deviated
    if (
        sample is not None
        and injected
        and config.sample_probe == config.injection_probe
    ):
        # The first sample at/after the injection time of the injection
        # probe is the injection occurrence itself (pre-injection flow
        # is fault-free, so the run reaches it exactly as golden did).
        found, golden_value = _golden_value(
            golden, config.injection_probe, injection_time, flip.variable
        )
        variables = dict(sample)
        if found:
            variables[flip.variable] = flip.apply(golden_value)
        sample = variables
        sample_state = StateSample(
            config.sample_probe, injection_time, variables
        )
        deviated = campaign._deviated(golden, sample_state)
    return ExperimentRecord(
        test_case=representative.test_case,
        flip=flip,
        injection_time=injection_time,
        sample=sample,
        failed=representative.failed,
        crashed=representative.crashed,
        temporal_impact=representative.temporal_impact,
        deviated=deviated,
    )


def assemble_records(
    campaign: Campaign,
    plan: PrunePlan,
    executed: dict[tuple[str, int], list[ExperimentRecord]],
) -> list[ExperimentRecord]:
    """Merge executed and synthesized records in canonical order.

    ``executed`` maps ``(variable, bit)`` of executed live and
    representative points to their records in (injection time, test
    case) order -- the shard execution order, so pruned and exhaustive
    campaigns emit their record lists in the identical canonical
    order.  It may be partial (a sampled campaign's draws): a live or
    representative point missing from it is skipped, and so is a
    member whose representative is missing.  Dead points are always
    synthesized.
    """
    config = campaign.config
    records: list[ExperimentRecord] = []
    for point in plan.points:
        if point.verdict in EXECUTED_VERDICTS:
            records.extend(executed.get((point.variable, point.bit), ()))
            continue
        flip = BitFlip(point.variable, point.kind, point.bit)
        if point.verdict == "dead":
            for injection_time in config.injection_times:
                for tc in config.test_cases:
                    records.append(
                        _synthesize_dead(
                            campaign, flip, injection_time, tc,
                            plan.golden_runs[tc],
                        )
                    )
            continue
        rep_records = executed.get((point.variable, point.representative_bit))
        if rep_records is None:
            continue
        index = 0
        for injection_time in config.injection_times:
            for tc in config.test_cases:
                records.append(
                    _synthesize_member(
                        campaign,
                        flip,
                        injection_time,
                        plan.golden_runs[tc],
                        rep_records[index],
                    )
                )
                index += 1
    return records


def audit_records(
    campaign: Campaign,
    plan: PrunePlan,
    records: list[ExperimentRecord],
    fraction: float,
    seed: int = 0,
) -> dict:
    """Re-inject a seeded random sample of pruned cells for real.

    ``records`` is the assembled record list (aligned with
    ``plan.points`` x times x test cases).  Every audited cell's real
    record must match the synthesized one exactly (``to_dict()``
    equality -- float bits included); any mismatch raises
    :class:`PruneContradiction` naming the offending points.
    Audited cells resume from the golden prefix like executed cells
    (:meth:`Campaign._fault_free`).
    """
    config = campaign.config
    times = config.injection_times
    test_cases = config.test_cases
    runs_per_point = len(times) * len(test_cases)
    cells = [
        (point_index, time_index, case_index)
        for point_index, point in enumerate(plan.points)
        if point.verdict in PRUNED_VERDICTS
        for time_index in range(len(times))
        for case_index in range(len(test_cases))
    ]
    sample_size = 0
    if cells and fraction > 0:
        sample_size = min(len(cells), max(1, math.ceil(fraction * len(cells))))
    rng = random.Random(seed)
    chosen = sorted(rng.sample(cells, sample_size))
    fault_free = campaign._fault_free() if chosen else None
    contradictions: list[str] = []
    for point_index, time_index, case_index in chosen:
        point = plan.points[point_index]
        injection_time = times[time_index]
        tc = test_cases[case_index]
        flip = BitFlip(point.variable, point.kind, point.bit)
        actual = campaign._run_one(
            flip,
            injection_time,
            tc,
            fault_free.golden_runs[tc],
            checkpoint=fault_free.checkpoints.get((injection_time, tc)),
        )
        synthesized = records[
            point_index * runs_per_point
            + time_index * len(test_cases)
            + case_index
        ]
        if actual.to_dict() != synthesized.to_dict():
            contradictions.append(
                f"{point.variable}[bit {point.bit}] t={injection_time} "
                f"tc={tc} ({point.verdict}: {point.reason})"
            )
    if contradictions:
        raise PruneContradiction(
            "static prune verdicts contradicted by re-injection: "
            + "; ".join(contradictions)
        )
    return {
        "population": len(cells),
        "audited": len(chosen),
        "fraction": fraction,
        "seed": seed,
        "contradictions": 0,
    }
