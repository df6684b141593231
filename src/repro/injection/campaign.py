"""Fault injection campaign driver (the PROPANE experiment loop).

Section VI: for each instrumented module the paper generates datasets
by running, for every test case, a golden run plus one injected run per
(variable, bit position, injection time) combination -- "each injected
run entailed a single bit-flip in a variable at one of these positions,
i.e. no multiple injection were performed".  The observable output of
every injected run is checked against the failure specification, and
the module state sampled at the configured sampling location becomes a
labelled instance: *failure-inducing* or *non-failure-inducing*.

:class:`Campaign` reproduces that loop, one body for every mode
(:meth:`Campaign.run`): a per-pair plan (every pair live, or the
static prune plan), batches of the plan's executed pairs drawn from it
(all at once, or a sampling policy's rounds), each batch executed
through :func:`repro.orchestration.campaigns.run_campaign`, and one
assembly of the records.  The sampled instance of a run
is the state recorded at the sampling probe occurrence closest after
the injection (for entry-injection/entry-sampling this is the corrupted
state itself, "sampled straight after the injection" as in the paper's
discussion of Hiller's setup).  Runs that crash before reaching the
sampling probe produce no instance but are counted as failures in the
campaign statistics.

An injected run is identical to its golden run up to the injection,
so for targets that follow the step protocol of
:mod:`repro.targets.base` it resumes from a snapshot of the fault-free
run taken at that point (:meth:`Campaign._fault_free`) instead of
replaying the test case from its start.  It also stops as
soon as it rejoins the golden run: once the flip has fired and the
sample is taken, a run whose state and probe counts equal the golden
run's at a unit boundary would finish exactly as the golden run did,
so it takes the golden output and final counts
(:meth:`repro.injection.golden.Checkpoint.resume`).  By the same
argument it stops where an earlier injected run of the same
:func:`~repro.orchestration.campaigns.run_campaign` call already went
(the suffix memo), and takes that run's outcome.  The records are
the same either way.  Subclasses that override ``_make_harness`` or
``_after_run`` observe the whole run, so they replay it in full and
never stop early.

Table II's X1 (entry/entry) and X2 (entry/exit) datasets of a module
inject the same faults at the same times; only the sampling location
differs, so their injected runs are the same runs.  A campaign that
injects at the entry and keeps the default hooks therefore has a
*sibling* (:meth:`Campaign._sibling`), and a store-backed run samples
both probes in one execution and hands the sibling's records over
(:func:`repro.orchestration.campaigns.run_campaign`); each record is
still picked and compared by its own campaign.

The paper's full scale (250 test cases x all 64 bits x 4 times per
variable) is supported but configurable; the experiment drivers use a
documented reduced scale (see EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import math
import struct
from collections import Counter
from collections.abc import Mapping

from repro import observability as obs
from repro.injection.bitflip import BitFlip, bit_width
from repro.injection.golden import Checkpoint, GoldenRun, fault_free_run
from repro.injection.instrument import (
    InjectionHarness,
    Location,
    Probe,
    StateSample,
    VariableSpec,
)
from repro.observability import names

__all__ = ["CampaignConfig", "ExperimentRecord", "CampaignResult", "Campaign"]


def _encode_value(value: float | int | bool) -> float | int | bool | str:
    """JSON-safe encoding of a sample value.

    Bools and ints pass through; floats become their raw IEEE-754 bits
    as a hex string so the round trip is exact even for NaN payloads
    and denormals (sample values are never plain strings, so the
    encoding is unambiguous).
    """
    if isinstance(value, (bool, int)):
        return value
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(value)))
    return f"0x{bits:016x}"


def _decode_value(token: float | int | bool | str) -> float | int | bool:
    if isinstance(token, str):
        (value,) = struct.unpack("<d", struct.pack("<Q", int(token, 16)))
        return value
    if isinstance(token, float):  # tolerate plain floats
        return token
    return token


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one fault injection campaign (one Table II row).

    Parameters
    ----------
    module:
        Instrumented module to inject into and sample from.
    injection_location / sample_location:
        Entry/exit combination; Table II uses (entry, entry),
        (entry, exit) and (exit, exit).
    test_cases:
        Numbered test cases to run (deterministic per number).
    injection_times:
        Zero-based occurrence indices of the injection probe at which
        to inject (3 for FG, 4 for 7Z/MG in the paper).
    variables:
        Variable names to target (default: all of the module's).
    bits:
        Bit positions to flip.  Either a shared tuple (positions beyond
        a variable's width are skipped, so ``range(16)`` works across
        mixed-width variables) or a mapping from variable kind
        (``"float64"``, ``"int32"``, ...) to a tuple, so campaigns can
        cover integer words densely and float mantissas sparsely.
        Default: every bit of each variable's representation, as in the
        paper.
    prune:
        ``"static"`` classifies every injection point with
        :mod:`repro.analysis.prune` before running and synthesizes
        records for provably dead/equivalent points instead of
        executing them (bit-identical to the exhaustive campaign);
        ``None`` (default) enumerates exhaustively.
    audit_fraction / audit_seed:
        When pruning, the seeded fraction of pruned cells re-injected
        for real to validate the static verdicts (a contradiction
        raises :class:`repro.analysis.prune.PruneContradiction`).
    """

    module: str
    injection_location: Location
    sample_location: Location
    test_cases: tuple[int, ...]
    injection_times: tuple[int, ...]
    variables: tuple[str, ...] | None = None
    bits: tuple[int, ...] | Mapping[str, tuple[int, ...]] | None = None
    prune: str | None = None
    audit_fraction: float = 0.05
    audit_seed: int = 0

    @property
    def injection_probe(self) -> Probe:
        return Probe(self.module, self.injection_location)

    @property
    def sample_probe(self) -> Probe:
        return Probe(self.module, self.sample_location)

    def to_dict(self) -> dict:
        """JSON-compatible form (used by store keys and ``repro lint``)."""
        bits: object
        if isinstance(self.bits, Mapping):
            bits = {kind: list(b) for kind, b in sorted(self.bits.items())}
        elif self.bits is not None:
            bits = list(self.bits)
        else:
            bits = None
        payload = {
            "module": self.module,
            "injection_location": self.injection_location.value,
            "sample_location": self.sample_location.value,
            "test_cases": list(self.test_cases),
            "injection_times": list(self.injection_times),
            "variables": None if self.variables is None else list(self.variables),
            "bits": bits,
        }
        # Prune settings are serialized only when enabled, so configs
        # (and the shard fingerprints derived from them) predating the
        # prune field round-trip unchanged.
        if self.prune is not None:
            payload["prune"] = self.prune
            payload["audit_fraction"] = self.audit_fraction
            payload["audit_seed"] = self.audit_seed
        return payload

    def with_prune(
        self, prune: str | None = None, audit_fraction: float | None = None
    ) -> "CampaignConfig":
        """This config under the ``--prune``/``--audit-fraction`` flags:
        ``None`` keeps the config's own setting, ``prune="none"``
        clears it."""
        config = self
        if prune is not None:
            config = dataclasses.replace(
                config, prune=None if prune == "none" else prune
            )
        if audit_fraction is not None:
            config = dataclasses.replace(config, audit_fraction=audit_fraction)
        return config

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CampaignConfig":
        bits = payload.get("bits")
        if isinstance(bits, Mapping):
            bits = {kind: tuple(b) for kind, b in bits.items()}
        elif bits is not None:
            bits = tuple(bits)
        variables = payload.get("variables")
        return cls(
            module=payload["module"],
            injection_location=Location(payload["injection_location"]),
            sample_location=Location(payload["sample_location"]),
            test_cases=tuple(payload["test_cases"]),
            injection_times=tuple(payload["injection_times"]),
            variables=None if variables is None else tuple(variables),
            bits=bits,
            prune=payload.get("prune"),
            audit_fraction=float(payload.get("audit_fraction", 0.05)),
            audit_seed=int(payload.get("audit_seed", 0)),
        )


@dataclasses.dataclass
class ExperimentRecord:
    """Outcome of one injected run.

    ``deviated`` is the alternative error notion of the paper's
    Discussion section: whether the sampled state differs from the
    golden run's state at the same probe occurrence -- "any deviation
    from a fault-free execution" -- independent of whether the run went
    on to violate the failure specification.
    """

    test_case: int
    flip: BitFlip
    injection_time: int
    sample: Mapping[str, float | int | bool] | None
    failed: bool
    crashed: bool
    temporal_impact: int
    deviated: bool = False

    @property
    def has_instance(self) -> bool:
        """Whether this run contributes an instance to the dataset."""
        return self.sample is not None

    def to_dict(self) -> dict:
        """JSON-compatible form; float samples keep their exact bits."""
        return {
            "test_case": self.test_case,
            "flip": {
                "variable": self.flip.variable,
                "kind": self.flip.kind,
                "bit": self.flip.bit,
            },
            "injection_time": self.injection_time,
            "sample": None if self.sample is None else {
                name: _encode_value(value)
                for name, value in self.sample.items()
            },
            "failed": self.failed,
            "crashed": self.crashed,
            "temporal_impact": self.temporal_impact,
            "deviated": self.deviated,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentRecord":
        flip = payload["flip"]
        sample = payload["sample"]
        return cls(
            test_case=int(payload["test_case"]),
            flip=BitFlip(flip["variable"], flip["kind"], int(flip["bit"])),
            injection_time=int(payload["injection_time"]),
            sample=None if sample is None else {
                name: _decode_value(token) for name, token in sample.items()
            },
            failed=bool(payload["failed"]),
            crashed=bool(payload["crashed"]),
            temporal_impact=int(payload["temporal_impact"]),
            deviated=bool(payload.get("deviated", False)),
        )


@dataclasses.dataclass
class CampaignResult:
    """All records of a campaign plus its configuration and statistics.

    ``sampling`` is set by sampled campaigns
    (:mod:`repro.injection.sampling`): the per-stratum interval
    estimates and the spec that produced them.  When present,
    ``records`` holds only the sampled (plus prune-synthesized) subset
    of the enumeration, in canonical order.

    ``orchestration`` (task counts, store traffic) and ``prune`` (the
    static prune summary and its audit) describe how :meth:`Campaign.run`
    produced the records.  They are not part of the campaign document:
    :meth:`to_dict` leaves them out and :meth:`from_dict` leaves them
    ``None``.
    """

    target_name: str
    config: CampaignConfig
    records: list[ExperimentRecord]
    variable_specs: tuple[VariableSpec, ...]
    sampling: object | None = None  # repro.injection.sampling.SamplingReport
    orchestration: dict | None = dataclasses.field(default=None, compare=False)
    prune: dict | None = dataclasses.field(default=None, compare=False)

    @property
    def n_runs(self) -> int:
        return len(self.records)

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.records if r.failed)

    @property
    def n_crashes(self) -> int:
        return sum(1 for r in self.records if r.crashed)

    @property
    def failure_rate(self) -> float:
        return self.n_failures / self.n_runs if self.records else 0.0

    def to_dataset(self, name: str | None = None, label_mode: str = "failure"):
        """Convert to a mining dataset (see :mod:`repro.injection.readout`).

        ``label_mode="failure"`` (the paper's target function) labels an
        instance positive when the run violated the failure spec;
        ``"deviation"`` labels it positive when the sampled state
        deviated from the golden run's (the alternative notion of the
        paper's Discussion section).
        """
        from repro.injection import readout

        return readout.records_to_dataset(self, name, label_mode)

    def to_dict(self) -> dict:
        """JSON-compatible form of the whole campaign.

        Like the PROPANE log format, it holds no golden runs (their
        outputs are arbitrary Python objects); everything the analysis
        consumes -- config, variable specs, records -- round trips
        exactly.
        """
        payload = {
            "format": "repro.injection.campaign",
            "target": self.target_name,
            "config": self.config.to_dict(),
            "variable_specs": [
                {"name": spec.name, "kind": spec.kind}
                for spec in self.variable_specs
            ],
            "records": [record.to_dict() for record in self.records],
        }
        # Sampling reports are serialized only when present, so
        # exhaustive campaign documents round-trip unchanged.
        if self.sampling is not None:
            payload["sampling"] = self.sampling.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CampaignResult":
        sampling = None
        if payload.get("sampling") is not None:
            from repro.injection.sampling import SamplingReport

            sampling = SamplingReport.from_dict(payload["sampling"])
        return cls(
            target_name=payload["target"],
            config=CampaignConfig.from_dict(payload["config"]),
            records=[
                ExperimentRecord.from_dict(r) for r in payload["records"]
            ],
            variable_specs=tuple(
                VariableSpec(spec["name"], spec["kind"])
                for spec in payload["variable_specs"]
            ),
            sampling=sampling,
        )


@dataclasses.dataclass
class FaultFree:
    """What the injected runs of one campaign call share in one
    process (:meth:`Campaign._fault_free`): golden runs by test case,
    checkpoints by ``(injection time, test case)``, and the suffix memo
    by test case (:meth:`~repro.injection.golden.Checkpoint.resume`)."""

    golden_runs: dict[int, GoldenRun]
    checkpoints: dict[tuple[int, int], Checkpoint]
    memo: dict[int, dict] = dataclasses.field(default_factory=dict)


class Campaign:
    """Runs a fault injection campaign against one target system."""

    def __init__(self, target, config: CampaignConfig) -> None:
        target.check_module(config.module)
        self.target = target
        self.config = config
        # Dataset attributes come from what the *sampling* probe sees;
        # flips can only target what the *injection* probe sees.
        self.variable_specs: tuple[VariableSpec, ...] = target.variables_of(
            config.module, config.sample_location
        )
        self.injectable_specs: tuple[VariableSpec, ...] = target.variables_of(
            config.module, config.injection_location
        )
        known = {spec.name for spec in self.injectable_specs}
        if config.variables is not None:
            unknown = set(config.variables) - known
            if unknown:
                raise ValueError(
                    f"unknown injectable variables for module "
                    f"{config.module!r} at {config.injection_location}: "
                    f"{sorted(unknown)}"
                )

    def _targeted_specs(self) -> tuple[VariableSpec, ...]:
        if self.config.variables is None:
            return self.injectable_specs
        wanted = set(self.config.variables)
        return tuple(s for s in self.injectable_specs if s.name in wanted)

    def store_key_base(self) -> dict | None:
        """The store key shared by every shard of this campaign.

        Everything that determines a shard's records except the
        shard's own pairs: the injected module's source-closure
        fingerprint, the failure-spec fingerprint, both probe sets,
        and the config slice.  The variable/bit selection (and the
        prune/audit settings, which never change an executed record)
        is deliberately absent -- a shard's pairs carry it, so
        campaigns slicing the same space differently share store
        entries.  ``None`` when the target is not store-eligible
        (see :meth:`repro.targets.base.TargetSystem.module_sources`).
        """
        module_fp = self.target.module_fingerprint(self.config.module)
        failure_fp = self.target.failure_fingerprint()
        if module_fp is None or failure_fp is None:
            return None
        return self._store_key_base(module_fp, failure_fp)

    def _store_key_base(self, module_fp: str, failure_fp: str) -> dict:
        """:meth:`store_key_base` from the two content fingerprints,
        which a sibling campaign (:meth:`_sibling`) shares."""
        config = self.config.to_dict()
        for key in ("prune", "audit_fraction", "audit_seed", "variables", "bits"):
            config.pop(key, None)
        return {
            "schema": 1,
            "target": self.target.name,
            "module_fingerprint": module_fp,
            "failure_fingerprint": failure_fp,
            "probes": {
                "injection": [
                    [spec.name, spec.kind] for spec in self.injectable_specs
                ],
                "sample": [
                    [spec.name, spec.kind] for spec in self.variable_specs
                ],
            },
            "config": config,
        }

    def plan_delta(self, store) -> dict:
        """Classify this campaign's shards against a store, running
        nothing: how much of the campaign a ``run(store=...)`` would
        load versus execute.  ``stored``/``invalidated``/``missing``
        partition the shard count (``invalidated`` shards have a
        superseded generation in the store -- the module was edited;
        ``missing`` shards are cold)."""
        from repro.injection.store import logical_id_of
        from repro.orchestration.campaigns import plan_shards
        from repro.orchestration.tasks import fingerprint_of

        base = self.store_key_base()
        plan = {
            "eligible": base is not None,
            "shards": 0,
            "stored": 0,
            "invalidated": 0,
            "missing": 0,
        }
        if base is None:
            return plan
        for shard in plan_shards(self):
            key = {**base, "pairs": [list(pair) for pair in shard]}
            fingerprint = fingerprint_of(key)
            plan["shards"] += 1
            if store.contains(fingerprint):
                plan["stored"] += 1
                continue
            # The same rule as a ``store.fetch`` miss.
            latest = store.latest(logical_id_of(key))
            if latest is not None and latest != fingerprint:
                plan["invalidated"] += 1
            else:
                plan["missing"] += 1
        return plan

    def _bits_for(self, spec: VariableSpec) -> tuple[int, ...]:
        width = bit_width(spec.kind)
        bits = self.config.bits
        if bits is None:
            return tuple(range(width))
        if isinstance(bits, Mapping):
            chosen = bits.get(spec.kind)
            if chosen is None:
                return tuple(range(width))
            return tuple(b for b in chosen if 0 <= b < width)
        return tuple(b for b in bits if 0 <= b < width)

    def _make_harness(self, flip: BitFlip, injection_time: int) -> InjectionHarness:
        """Harness factory; overridable (e.g. to add runtime assertions)."""
        return InjectionHarness(
            self.config.injection_probe,
            flip,
            injection_time,
            sample_probe=self.config.sample_probe,
        )

    def run(self, pool=None, sampling=None, store=None) -> CampaignResult:
        """Execute the campaign and return its records.

        Every mode runs one loop, the paper's Step 1 over (variable,
        bit, injection time, test case):

        1. **plan** -- one verdict per ``(variable, bit)`` pair: the
           static prune plan when ``config.prune == "static"``, else
           every pair live (no dataflow analysis, no golden runs);
        2. **draw** -- batches of the plan's executed pairs: one batch
           holding all of them, or the seeded rounds of a sampling
           policy (:class:`~repro.injection.sampling.StratifiedDraws`);
        3. **execute** -- every batch through
           :func:`repro.orchestration.campaigns.run_campaign`, whose
           shards take the golden runs and checkpoints from their own
           process (:meth:`_fault_free`);
        4. **assemble** -- executed and synthesized records merged in
           canonical order (:func:`repro.analysis.prune.assemble_records`),
           then the prune audit or the sampling estimates, and one
           ``orchestration`` summary summed over the batches.

        ``pool`` (a :class:`repro.orchestration.WorkerPool`) executes
        the shards -- one pair each -- in parallel; the merged records
        are bit-identical to the serial run for any worker count.
        Without a pool, one configured via
        :func:`repro.orchestration.configure` (the experiments CLI's
        ``--jobs``) is picked up, else the run is serial in-process,
        as the paper's loop is: an exception raised by campaign code
        (a harness factory, a hook) propagates rather than turning
        into crash records.

        ``config.prune == "static"`` runs the statically pruned
        campaign: provably dead or class-equivalent injection points
        synthesize their records from golden runs and class
        representatives instead of executing, then a seeded
        ``config.audit_fraction`` of the pruned cells is re-injected
        for real and checked against the synthesized records (see
        :mod:`repro.analysis.prune`); the result's ``prune`` attribute
        carries the plan's counts and the audit.  The record list
        stays bit-identical to the exhaustive campaign's.

        ``sampling`` (a :class:`~repro.injection.sampling.SamplingSpec`)
        draws stratified seeded rounds over the same cell space
        instead of every pair (see :mod:`repro.injection.sampling`),
        with online intervals and an early stop once every stratum's
        class intervals are narrow enough.  The result's ``sampling``
        field carries the per-stratum estimates; its records are the
        sampled subset in canonical order, each bit-identical to the
        exhaustive campaign's record for the same cell.  Sampling
        composes with static pruning: draws are restricted to the
        statically live classes, dead and member cells are synthesized
        exactly (the prune audit does not run in sample mode --
        pruned cells are already a separate exactness tier).

        ``store`` (a :class:`repro.injection.store.CampaignStore`)
        makes the run *compositional*: every shard's records are
        addressed by the injected module's source-closure fingerprint
        (plus failure spec, probes, config slice and pair), so after
        editing one target module only that module's shards re-execute
        -- everything else loads from the store and merges in canonical
        order, bit-identical to a fresh exhaustive run.  Each shard is
        stored as it completes, so re-running a killed campaign against
        the same store resumes it.  Targets opt in by declaring
        per-module source closures
        (:meth:`~repro.targets.base.TargetSystem.module_sources`);
        ineligible targets warn and run storeless.  The store composes
        with pools, pruning and sampling in both directions.  Golden
        runs are executed up front only for a prune plan; otherwise a
        process executes a test case's fault-free run when the first
        shard that needs it runs there, so a run whose shards are all
        stored executes none.

        Campaign subclasses that observe per-run harness state through
        :meth:`_after_run` (e.g. the validation campaign) are forced
        onto in-process execution without retries, since a worker
        process's harness observations would be lost with the worker
        and a retried shard would observe its runs twice.  For the same
        reason they refuse pruning and sampling: a synthesized or
        undrawn run never executes, so the hook would silently miss
        it.
        """
        from repro.analysis import prune as prune_mod
        from repro.injection.sampling import SamplingSpec, StratifiedDraws
        from repro.orchestration.campaigns import records_by_pair, run_campaign
        from repro.orchestration.pool import SerialPool, default_pool

        if sampling is not None and not isinstance(sampling, SamplingSpec):
            raise ValueError(
                f"unknown campaign mode {sampling!r}: sampling takes a "
                "SamplingSpec, or None for the exhaustive campaign"
            )
        prune = self.config.prune or "none"
        if prune not in ("none", "static"):
            raise ValueError(f"unknown prune mode {prune!r}")
        pruned = prune == "static"
        observes = type(self)._after_run is not Campaign._after_run
        if observes and sampling is not None:
            raise ValueError(
                "campaigns observing per-run harness state via "
                "_after_run cannot sample: undrawn runs never execute"
            )
        if observes and pruned:
            raise ValueError(
                "campaigns observing per-run harness state via "
                "_after_run cannot prune: synthesized runs never execute"
            )
        owned = default_pool() if pool is None else None
        if owned is not None:
            pool = owned
        if pool is None or observes:
            # The paper's plain loop: in this process, and an exception
            # raised by campaign code propagates instead of being
            # retried into crash records.  Observation hooks need
            # exactly that -- every run once, here.
            pool = SerialPool(isolate=False)
        try:
            plan = self._plan_prune() if pruned else prune_mod.all_live(self)
            pairs = plan.executed_pairs()
            draws = (
                None if sampling is None
                else StratifiedDraws(self, sampling, pairs)
            )
            executed: dict[tuple[str, int], list[ExperimentRecord]] = {}
            summaries: list[dict] = []

            def execute(batch):
                partial = run_campaign(self, pool=pool, pairs=batch, store=store)
                summaries.append(partial.orchestration)
                drawn = records_by_pair(self, batch, partial.records)
                executed.update(drawn)
                return drawn

            if draws is None:
                execute(pairs)
            else:
                draws.run(execute)

            if pruned:
                with obs.span(
                    names.PRUNE_SYNTHESIZE, target=self.target.name
                ) as synth_span:
                    records = prune_mod.assemble_records(self, plan, executed)
                    synth_span.count(
                        "synthesized",
                        len(records) - sum(map(len, executed.values())),
                    )
            else:
                records = prune_mod.assemble_records(self, plan, executed)
            result = CampaignResult(
                self.target.name,
                self.config,
                records,
                self.variable_specs,
                sampling=None if draws is None else draws.report(plan, records),
            )
            result.orchestration = _merge_summaries(summaries, pool.jobs)
            if pruned and draws is None:
                result.prune = self._audit(plan, records)
            return result
        finally:
            if owned is not None:
                owned.close()

    def _plan_prune(self):
        """The static prune plan (:func:`repro.analysis.prune.plan_prune`),
        with the golden runs it classifies against."""
        from repro.analysis import prune as prune_mod

        with obs.span(names.PRUNE_PLAN, target=self.target.name) as span:
            plan = prune_mod.plan_prune(self)
            counts = plan.counts
            span.count("points", len(plan.points))
            span.count(names.COUNTER_PRUNED, counts["dead"] + counts["member"])
        return plan

    def _audit(self, plan, records) -> dict:
        """Re-inject the seeded audit sample of a pruned run's
        synthesized cells (:func:`repro.analysis.prune.audit_records`);
        returns the ``result.prune`` summary."""
        from repro.analysis import prune as prune_mod

        config = self.config
        with obs.span(names.PRUNE_AUDIT, target=self.target.name) as audit_span:
            audit = prune_mod.audit_records(
                self,
                plan,
                records,
                config.audit_fraction,
                config.audit_seed,
            )
            audit_span.count(names.COUNTER_AUDITED, audit["audited"])
            audit_span.count(
                names.COUNTER_CONTRADICTIONS, audit["contradictions"]
            )
        return {
            "mode": "static",
            **plan.counts,
            "runs_planned": plan.runs_planned,
            "runs_executed": plan.runs_executed,
            "runs_pruned": plan.runs_pruned,
            "pruned_fraction": plan.pruned_fraction,
            "audit": audit,
        }

    def _default_hooks(self) -> bool:
        """Whether the campaign keeps the default ``_make_harness`` and
        ``_after_run``: a subclass hooking either sees the whole run."""
        cls = type(self)
        return (
            cls._make_harness is Campaign._make_harness
            and cls._after_run is Campaign._after_run
        )

    def _resumes(self) -> bool:
        """Whether injected runs resume from golden-prefix checkpoints.

        They replay in full when the target lacks the step protocol or
        when a subclass hooks the harness (``_make_harness``) or
        observes it after the run (``_after_run``): those hooks see
        the whole run, prefix included.
        """
        resumable = getattr(self.target, "resumable", None)
        return self._default_hooks() and resumable is not None and resumable()

    def _sibling(self) -> "Campaign | None":
        """The campaign whose injected runs are this one's, step for step.

        It is the same target and config sampled at the other location:
        Table II's X1 (entry/entry) and X2 (entry/exit) datasets are
        siblings, and one run sampling both probes yields both records
        (:func:`repro.orchestration.campaigns.run_campaign` hands the
        sibling's over).  Only a campaign that injects at the entry
        (the Table II pairs) and keeps the default harness hooks (a
        hooked harness is not the plain one a dual run uses) has one.
        """
        config = self.config
        if config.injection_location is not Location.ENTRY or not self._default_hooks():
            return None
        other = (
            Location.EXIT
            if config.sample_location is Location.ENTRY
            else Location.ENTRY
        )
        return Campaign(
            self.target, dataclasses.replace(config, sample_location=other)
        )

    def _fault_free(self, sibling: "Campaign | None" = None) -> FaultFree:
        """What this campaign's injected runs take from the fault-free
        runs, from one :func:`~repro.injection.golden.fault_free_run`
        per test case: the golden runs, a checkpoint per ``(injection
        time, test case)`` cell that can resume (none when the
        campaign replays) and an empty suffix memo.  With ``sibling``
        the checkpoints also suit runs that sample the sibling's
        probe."""
        config = self.config
        sample_probes = (config.sample_probe,)
        if sibling is not None:
            sample_probes += (sibling.config.sample_probe,)
        resumes = self._resumes()
        fault_free = FaultFree({}, {})
        with obs.span(names.CAMPAIGN_CHECKPOINT, target=self.target.name) as span:
            for tc in config.test_cases:
                run = fault_free_run(self.target, tc)
                fault_free.golden_runs[tc] = run.golden
                if not resumes:
                    continue
                selected = run.checkpoints(
                    config.injection_probe, sample_probes, config.injection_times
                )
                for injection_time, checkpoint in selected.items():
                    fault_free.checkpoints[(injection_time, tc)] = checkpoint
            span.count("checkpoints", len(fault_free.checkpoints))
        return fault_free

    def _count_resumes(self, span, checkpoints, pairs: int, tally) -> None:
        """Count ``pairs`` pairs' resumed and replayed cells, and what
        ``tally`` collected while running them -- early stops, executed
        units, checks and restores -- on ``span``."""
        cells = len(self.config.injection_times) * len(self.config.test_cases)
        span.count(names.COUNTER_RESUMED, len(checkpoints) * pairs)
        span.count(names.COUNTER_REPLAYED, (cells - len(checkpoints)) * pairs)
        for counter in (
            names.COUNTER_REJOINED,
            names.COUNTER_CONVERGED,
            names.COUNTER_UNITS_SKIPPED,
            names.COUNTER_UNITS,
            names.COUNTER_CHECKS,
            names.COUNTER_RESTORES,
            names.COUNTER_CHECK_BYTES,
        ):
            span.count(counter, tally[counter])

    def _run_pair(
        self,
        flip: BitFlip,
        fault_free: FaultFree,
        tally: Counter | None = None,
        sibling: "Campaign | None" = None,
    ):
        """Every cell of one (variable, bit) pair in canonical order
        (injection time, then test case), resuming where ``fault_free``
        (:meth:`_fault_free`) holds a checkpoint and sharing its suffix
        memo.  The inner loop of every shard
        (:func:`repro.orchestration.campaigns.run_campaign`).  With
        ``sibling`` (:meth:`_sibling`) every run also yields the
        sibling's record, and the result is ``(records, sibling's
        records)``."""
        cells = [
            self._run_one(
                flip,
                injection_time,
                tc,
                fault_free.golden_runs[tc],
                checkpoint=fault_free.checkpoints.get((injection_time, tc)),
                tally=tally,
                sibling=sibling,
                memo=fault_free.memo.setdefault(tc, {}),
            )
            for injection_time in self.config.injection_times
            for tc in self.config.test_cases
        ]
        if sibling is None:
            return cells
        return [own for own, _ in cells], [other for _, other in cells]

    def _run_one(
        self,
        flip: BitFlip,
        injection_time: int,
        test_case: int,
        golden: GoldenRun,
        checkpoint: Checkpoint | None = None,
        tally: Counter | None = None,
        sibling: "Campaign | None" = None,
        memo: dict | None = None,
    ):
        """One injected run; ``checkpoint`` resumes it from the golden
        prefix instead of replaying the test case from the start, and
        stops it once it rejoins the golden run or reaches a boundary
        of the test case's suffix ``memo`` (counted in ``tally``).
        With ``sibling`` the harness samples both campaigns' probes
        and the run returns ``(record, sibling's record)``, each
        picked and compared by its own campaign."""
        if sibling is None:
            harness = self._make_harness(flip, injection_time)
        else:
            harness = InjectionHarness(
                self.config.injection_probe,
                flip,
                injection_time,
                sample_probe=(
                    self.config.sample_probe,
                    sibling.config.sample_probe,
                ),
            )
        state = None
        if checkpoint is not None:
            state = checkpoint.restore(harness)
            if tally is not None:
                tally[names.COUNTER_RESTORES] += 1
        crashed = False
        try:
            if checkpoint is None:
                output = self.target.run(test_case, harness)
            else:
                output = checkpoint.resume(
                    self.target, state, harness, golden.output, memo, tally
                )
            failed = self.target.is_failure(golden.output, output)
        except Exception:
            # An injected fault crashed the target: a specification
            # violation by definition (no valid output was produced).
            crashed = True
            failed = True
        temporal_impact = max(
            0, harness.occurrences(self.config.injection_probe) - injection_time
        )
        run = (harness, flip, injection_time, test_case, golden, failed, crashed)
        record = self._record(*run, temporal_impact)
        self._after_run(harness, record)
        if sibling is None:
            return record
        return record, sibling._record(*run, temporal_impact)

    def _record(
        self,
        harness: InjectionHarness,
        flip: BitFlip,
        injection_time: int,
        test_case: int,
        golden: GoldenRun,
        failed: bool,
        crashed: bool,
        temporal_impact: int,
    ) -> ExperimentRecord:
        """This campaign's record of a finished run."""
        sample = self._pick_sample(harness, injection_time)
        return ExperimentRecord(
            test_case=test_case,
            flip=flip,
            injection_time=injection_time,
            sample=sample.variables if sample is not None else None,
            failed=failed,
            crashed=crashed,
            temporal_impact=temporal_impact,
            deviated=self._deviated(golden, sample),
        )

    def _deviated(self, golden: GoldenRun, sample: StateSample | None) -> bool:
        """Golden-diff of the sampled state itself (Discussion §VIII)."""
        if sample is None:
            return True  # never reached the probe: maximal deviation
        reference = golden.sample_at(self.config.sample_probe, sample.occurrence)
        if reference is None:
            return True  # golden run has no matching occurrence
        return not _states_equal(reference.variables, sample.variables)

    def _after_run(self, harness: InjectionHarness, record: ExperimentRecord) -> None:
        """Hook for subclasses that observe each run's harness (e.g. the
        runtime-assertion validation of Section VII-D)."""

    def _pick_sample(
        self, harness: InjectionHarness, injection_time: int
    ) -> StateSample | None:
        """The instance state: first sample at/after the injection time.

        Entry->exit sampling of the same invocation shares the
        occurrence index with the injection probe, so "at or after the
        injection occurrence" selects the state right after the fault
        was introduced in all three Table II location combinations.
        Only this campaign's probe counts: a dual run's harness holds
        its sibling's samples too.
        """
        probe = self.config.sample_probe
        for sample in harness.samples:
            if sample.probe == probe and sample.occurrence >= injection_time:
                return sample
        return None


def _states_equal(
    a: Mapping[str, float | int | bool], b: Mapping[str, float | int | bool]
) -> bool:
    if a.keys() != b.keys():
        return False
    for name, value in a.items():
        other = b[name]
        if isinstance(value, float) and isinstance(other, float):
            if math.isnan(value) and math.isnan(other):
                continue
        if value != other:
            return False
    return True


def _merge_summaries(summaries: list[dict], jobs: int) -> dict:
    """One ``orchestration`` summary over a run's batches: task counts
    summed, quarantined shard ids concatenated, and the store traffic
    summed when a batch ran against a store.  A run that drew no batch
    (every pair of a sampled run pruned dead) reports zero tasks."""
    merged: dict = {
        "tasks": 0,
        "executed": 0,
        "stored": 0,
        "sibling": 0,
        "quarantined": [],
        "jobs": jobs,
    }
    for summary in summaries:
        for key in ("tasks", "executed", "stored", "sibling", "quarantined"):
            merged[key] += summary[key]
        if "store" in summary:
            store = merged.setdefault("store", dict.fromkeys(summary["store"], 0))
            for key, value in summary["store"].items():
                store[key] += value
    return merged
