"""Tests for the campaign driver, using a tiny in-repo target."""

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.golden import capture_golden_run
from repro.injection.instrument import Harness, Location, VariableSpec
from repro.targets.base import TargetSystem


class CounterTarget(TargetSystem):
    """Minimal deterministic target: accumulates values over 4 steps.

    A run fails iff the final accumulator differs from the golden one.
    ``scratch`` is overwritten each step (resilient); ``acc`` is live.
    """

    name = "CT"

    @property
    def modules(self):
        return ("Acc",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        entry = (VariableSpec("acc", "int32"), VariableSpec("scratch", "int32"))
        exit_only = (VariableSpec("total", "int32"),)
        if location is Location.ENTRY:
            return entry
        return entry + exit_only

    def run(self, test_case, harness: Harness):
        acc = test_case
        for step in range(4):
            state = harness.probe(
                "Acc", Location.ENTRY, {"acc": acc, "scratch": 0}
            )
            acc = int(state["acc"]) + step
            state = harness.probe(
                "Acc", Location.EXIT,
                {"acc": acc, "scratch": step, "total": acc},
            )
            acc = int(state["total"])
        return acc

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output


def config(**overrides):
    base = dict(
        module="Acc",
        injection_location=Location.ENTRY,
        sample_location=Location.ENTRY,
        test_cases=(0, 1),
        injection_times=(1, 2),
        bits=(0, 1, 2),
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestGoldenRun:
    def test_capture(self):
        golden = capture_golden_run(CounterTarget(), 1)
        assert golden.output == 1 + 0 + 1 + 2 + 3
        assert len(golden.samples) == 8

    def test_samples_at(self):
        from repro.injection.instrument import Probe

        golden = capture_golden_run(CounterTarget(), 0)
        assert len(golden.samples_at(Probe("Acc", Location.ENTRY))) == 4


class TestCampaign:
    def test_run_count(self):
        result = Campaign(CounterTarget(), config()).run()
        # 2 entry variables x 3 bits x 2 times x 2 test cases
        assert result.n_runs == 24

    def test_acc_flips_fail_scratch_flips_do_not(self):
        result = Campaign(CounterTarget(), config()).run()
        for record in result.records:
            if record.flip.variable == "acc":
                assert record.failed
            else:
                assert not record.failed

    def test_failure_rate(self):
        result = Campaign(CounterTarget(), config()).run()
        assert result.failure_rate == pytest.approx(0.5)
        assert result.n_failures == 12
        assert result.n_crashes == 0

    def test_exit_injection_targets_exit_variables(self):
        result = Campaign(
            CounterTarget(),
            config(injection_location=Location.EXIT,
                   sample_location=Location.EXIT),
        ).run()
        variables = {r.flip.variable for r in result.records}
        assert "total" in variables

    def test_sample_is_first_at_or_after_injection(self):
        result = Campaign(CounterTarget(), config()).run()
        for record in result.records:
            assert record.sample is not None
            if record.flip.variable == "acc":
                # Entry/entry sampling: sample holds the corrupted value.
                golden_acc = record.test_case + sum(
                    range(record.injection_time)
                )
                assert record.sample["acc"] != golden_acc

    def test_variables_filter(self):
        result = Campaign(
            CounterTarget(), config(variables=("scratch",))
        ).run()
        assert {r.flip.variable for r in result.records} == {"scratch"}

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            Campaign(CounterTarget(), config(variables=("bogus",)))

    def test_unknown_module_rejected(self):
        with pytest.raises(Exception):
            Campaign(CounterTarget(), config(module="Nope"))

    def test_per_kind_bits(self):
        result = Campaign(
            CounterTarget(), config(bits={"int32": (0, 5)})
        ).run()
        assert {r.flip.bit for r in result.records} == {0, 5}

    def test_temporal_impact(self):
        result = Campaign(CounterTarget(), config()).run()
        for record in result.records:
            assert record.temporal_impact == 4 - record.injection_time


class TestDatasetConversion:
    def test_to_dataset(self):
        result = Campaign(CounterTarget(), config()).run()
        ds = result.to_dataset("CT-test")
        assert len(ds) == result.n_runs
        assert ds.name == "CT-test"
        assert [a.name for a in ds.attributes] == ["acc", "scratch"]
        assert ds.class_attribute.values == ("nofail", "fail")
        assert ds.class_counts()[1] == result.n_failures

    def test_exit_dataset_includes_exit_attributes(self):
        result = Campaign(
            CounterTarget(),
            config(injection_location=Location.ENTRY,
                   sample_location=Location.EXIT),
        ).run()
        ds = result.to_dataset()
        assert [a.name for a in ds.attributes] == ["acc", "scratch", "total"]


class CrashingTarget(CounterTarget):
    """Raises when acc goes negative (as a C segfault would)."""

    def run(self, test_case, harness: Harness):
        acc = test_case
        for step in range(4):
            state = harness.probe(
                "Acc", Location.ENTRY, {"acc": acc, "scratch": 0}
            )
            acc = int(state["acc"]) + step
            if acc < 0:
                raise RuntimeError("segfault")
            state = harness.probe(
                "Acc", Location.EXIT,
                {"acc": acc, "scratch": step, "total": acc},
            )
            acc = int(state["total"])
        return acc


class TestCrashes:
    def test_crash_counts_as_failure(self):
        cfg = config(bits=(31,), variables=("acc",))  # sign flips
        result = Campaign(CrashingTarget(), cfg).run()
        assert result.n_crashes > 0
        for record in result.records:
            if record.crashed:
                assert record.failed


class TestSerialization:
    """to_dict/from_dict round trips, exact to the bit (incl. NaN)."""

    def test_config_round_trip_tuple_bits(self):
        cfg = config()
        rebuilt = CampaignConfig.from_dict(cfg.to_dict())
        assert rebuilt == cfg

    def test_config_round_trip_mapping_bits(self):
        cfg = config(bits={"int32": (0, 5), "float64": (52, 63)},
                     variables=("acc",))
        rebuilt = CampaignConfig.from_dict(cfg.to_dict())
        assert rebuilt == cfg

    def test_config_round_trip_default_bits(self):
        cfg = config(bits=None)
        assert CampaignConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_dict_is_json_compatible(self):
        import json

        cfg = config(bits={"int32": (0,)})
        assert CampaignConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))
        ) == cfg

    def test_record_round_trip(self):
        result = Campaign(CounterTarget(), config()).run()
        for record in result.records:
            from repro.injection.campaign import ExperimentRecord

            rebuilt = ExperimentRecord.from_dict(record.to_dict())
            assert rebuilt == record

    def test_record_round_trip_crash_and_nan(self):
        import json
        import math
        import struct

        from repro.injection.bitflip import BitFlip
        from repro.injection.campaign import ExperimentRecord

        nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8DEADBEEF0001))[0]
        crash = ExperimentRecord(
            test_case=3,
            flip=BitFlip("acc", "float64", 62),
            injection_time=1,
            sample=None,
            failed=True,
            crashed=True,
            temporal_impact=0,
            deviated=True,
        )
        nan_record = ExperimentRecord(
            test_case=0,
            flip=BitFlip("acc", "float64", 51),
            injection_time=2,
            sample={"acc": nan_payload, "flag": True, "count": -7},
            failed=False,
            crashed=False,
            temporal_impact=2,
            deviated=True,
        )
        assert ExperimentRecord.from_dict(crash.to_dict()) == crash
        # NaN != NaN, so compare through the (exact) encoded form plus
        # the raw bits of the decoded sample value.
        rebuilt = ExperimentRecord.from_dict(
            json.loads(json.dumps(nan_record.to_dict()))
        )
        assert rebuilt.to_dict() == nan_record.to_dict()
        assert math.isnan(rebuilt.sample["acc"])
        assert struct.pack("<d", rebuilt.sample["acc"]) == struct.pack(
            "<d", nan_payload
        )
        assert rebuilt.sample["flag"] is True
        assert rebuilt.sample["count"] == -7

    def test_campaign_result_round_trip(self):
        from repro.injection.campaign import CampaignResult

        result = Campaign(CounterTarget(), config()).run()
        payload = result.to_dict()
        assert payload["format"] == "repro.injection.campaign"
        rebuilt = CampaignResult.from_dict(payload)
        assert rebuilt.target_name == result.target_name
        assert rebuilt.config == result.config
        assert rebuilt.variable_specs == result.variable_specs
        assert rebuilt.records == result.records
        # A result holds no golden runs, so none are persisted.
        assert not any("golden" in key for key in payload)

    def test_campaign_result_round_trip_with_crashes(self):
        import json

        from repro.injection.campaign import CampaignResult

        cfg = config(bits=(31,), variables=("acc",))
        result = Campaign(CrashingTarget(), cfg).run()
        assert result.n_crashes > 0
        rebuilt = CampaignResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.records == result.records
        assert rebuilt.n_crashes == result.n_crashes


class TestDeviationLabelling:
    def test_acc_flips_deviate(self):
        result = Campaign(CounterTarget(), config()).run()
        for record in result.records:
            if record.flip.variable == "acc":
                # Entry/entry sampling sees the corrupted accumulator.
                assert record.deviated

    def test_scratch_flips_deviate_but_do_not_fail(self):
        """The gap between the two target functions: scratch flips are
        visible at the sampling point (deviation) yet harmless
        (no failure)."""
        result = Campaign(CounterTarget(), config()).run()
        scratch = [r for r in result.records if r.flip.variable == "scratch"]
        assert scratch
        for record in scratch:
            assert record.deviated
            assert not record.failed

    def test_deviation_dataset_labels(self):
        result = Campaign(CounterTarget(), config()).run()
        failure = result.to_dataset(label_mode="failure")
        deviation = result.to_dataset(label_mode="deviation")
        assert deviation.class_counts()[1] >= failure.class_counts()[1]
        # Here every entry flip is visible at the sampling point.
        assert deviation.class_counts()[1] == len(deviation)

    def test_unknown_label_mode(self):
        result = Campaign(CounterTarget(), config()).run()
        import pytest as _pytest

        with _pytest.raises(ValueError):
            result.to_dataset(label_mode="vibes")

    def test_deviated_round_trips_through_log(self):
        import io

        from repro.injection.logfmt import read_log, write_log

        result = Campaign(CounterTarget(), config()).run()
        buffer = io.StringIO()
        write_log(result, buffer)
        buffer.seek(0)
        parsed = read_log(buffer)
        for a, b in zip(parsed.records, result.records):
            assert a.deviated == b.deviated

    def test_old_logs_default_to_not_deviated(self):
        import io

        from repro.injection.logfmt import read_log

        text = (
            "#PROPANE-LOG v1\n#target T\n#module M\n#inject entry\n"
            "#sample entry\n#var v int32\n"
            "RUN tc=0 var=v kind=int32 bit=0 time=0 failed=0 crashed=0 "
            "impact=1\nS v=5\n"
        )
        parsed = read_log(io.StringIO(text))
        assert parsed.records[0].deviated is False
