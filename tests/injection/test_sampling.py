"""Statistical sampling campaigns: subset soundness, determinism,
store interop, interval coverage, and the vectorized data plane.

The module's contracts, in test order:

* the batch flip helper is bit-identical to ``flip_bit`` for every
  kind, including NaN payloads, signed zeros and two's-complement
  wrap;
* a sampled campaign draws a duplicate-free subset of the exhaustive
  enumeration, deterministically under a fixed seed and invariantly
  under worker count, and every sampled record is bit-identical to
  the exhaustive campaign's record for the same cell;
* sampled and exhaustive campaigns share store shards in both
  directions, pooled or resumed;
* golden-run caching never changes a record;
* the per-stratum intervals achieve at least nominal coverage on a
  synthetic Bernoulli injection space.
"""

import json
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.injection.bitflip import (
    FaultModelError,
    flip_bit,
    flip_bits_batch,
)
from repro.injection.campaign import Campaign, CampaignConfig, CampaignResult
from repro.injection.golden import GOLDEN_CACHE, golden_runs_for
from repro.injection.instrument import Harness, Location, VariableSpec
from repro.injection.sampling import (
    SamplingReport,
    SamplingSpec,
    plan_strata,
)
from repro.mining.cache import clear_reuse_caches, reuse_caches_disabled
from repro.orchestration.campaigns import plan_pairs
from repro.orchestration.pool import ProcessPool, SerialPool
from repro.targets.base import TargetSystem


# ----------------------------------------------------------------------
# Synthetic targets (module level: picklable across worker processes).
# ----------------------------------------------------------------------
class MixTarget(TargetSystem):
    """Deterministic target with mixed-kind variables and a failure
    rate that differs per variable (distinct strata behaviours)."""

    name = "MX"

    @property
    def modules(self):
        return ("Mix",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        return (
            VariableSpec("alpha", "int32"),
            VariableSpec("beta", "float64"),
            VariableSpec("gate", "bool"),
        )

    def run(self, test_case, harness: Harness):
        alpha, beta, gate = test_case + 3, 1.5 * (test_case + 1), True
        acc = 0.0
        for _ in range(3):
            state = harness.probe(
                "Mix",
                Location.ENTRY,
                {"alpha": alpha, "beta": beta, "gate": gate},
            )
            alpha = int(state["alpha"])
            beta = float(state["beta"])
            gate = bool(state["gate"])
            acc += alpha + (beta if gate else 0.0)
        return acc

    def is_failure(self, golden_output, run_output):
        if isinstance(run_output, float) and math.isnan(run_output):
            return True
        return golden_output != run_output

    def module_sources(self, module):
        # Store-eligible: the whole behaviour lives in run/is_failure.
        self.check_module(module)
        return (type(self).run, type(self).is_failure)


#: Pseudo-random but fixed subset of int64 bit positions whose flip
#: the Bernoulli target counts as a failure (true rate 20/64).
FAIL_BITS = frozenset(b for b in range(64) if (b * 37 + 11) % 64 < 20)
TRUE_RATE = len(FAIL_BITS) / 64


class BernoulliTarget(TargetSystem):
    """One int64 variable whose bits fail i.i.d.-like per FAIL_BITS:
    with one test case and one injection time, cells == pairs, so the
    stratum estimate is a textbook binomial proportion."""

    name = "BN"

    @property
    def modules(self):
        return ("Ber",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        return (VariableSpec("x", "int64"),)

    def run(self, test_case, harness: Harness):
        state = harness.probe("Ber", Location.ENTRY, {"x": 0})
        value = int(state["x"])
        if value == 0:
            return 0
        bit = (value & ((1 << 64) - 1)).bit_length() - 1
        return 1 if bit in FAIL_BITS else 0

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output


def mix_config(**overrides):
    base = dict(
        module="Mix",
        injection_location=Location.ENTRY,
        sample_location=Location.ENTRY,
        test_cases=(0, 1),
        injection_times=(0, 1),
        bits=tuple(range(12)),
    )
    base.update(overrides)
    return CampaignConfig(**base)


BERNOULLI_CONFIG = CampaignConfig(
    module="Ber",
    injection_location=Location.ENTRY,
    sample_location=Location.ENTRY,
    test_cases=(0,),
    injection_times=(0,),
)


def record_key(record):
    return (
        record.flip.variable,
        record.flip.bit,
        record.injection_time,
        record.test_case,
    )


def table(result):
    return [record.to_dict() for record in result.records]


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_reuse_caches()
    yield
    clear_reuse_caches()


# ----------------------------------------------------------------------
# Vectorized bit flips: bit-identity with the scalar fault model.
# ----------------------------------------------------------------------
class TestBatchFlips:
    @given(value=st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_int32_bits_batch_matches_scalar(self, value):
        assert flip_bits_batch(value, "int32", range(32)) == [
            flip_bit(value, "int32", b) for b in range(32)
        ]

    @given(value=st.integers(-(2**63), 2**63 - 1))
    @settings(max_examples=50, deadline=None)
    def test_int64_bits_batch_matches_scalar(self, value):
        assert flip_bits_batch(value, "int64", range(64)) == [
            flip_bit(value, "int64", b) for b in range(64)
        ]

    @given(
        value=st.floats(
            allow_nan=True, allow_infinity=True, allow_subnormal=True
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_float64_bits_batch_matches_scalar_bitwise(self, value):
        batch = flip_bits_batch(value, "float64", range(64))
        for bit, flipped in enumerate(batch):
            reference = flip_bit(value, "float64", bit)
            assert struct.pack("<d", flipped) == struct.pack("<d", reference)

    def test_nan_payload_and_signed_zero_survive(self):
        payload_nan = struct.unpack(
            "<d", struct.pack("<Q", 0x7FF8_0000_0000_0123)
        )[0]
        for value in (payload_nan, -0.0, 0.0):
            batch = flip_bits_batch(value, "float64", range(64))
            for bit, flipped in enumerate(batch):
                assert struct.pack("<d", flipped) == struct.pack(
                    "<d", flip_bit(value, "float64", bit)
                )

    def test_bool_batches(self):
        assert flip_bits_batch(True, "bool", [0]) == [False]

    def test_out_of_range_bits_raise(self):
        with pytest.raises(FaultModelError):
            flip_bits_batch(1, "int32", [0, 32])
        with pytest.raises(FaultModelError):
            flip_bits_batch(1, "int32", [-1])

    def test_empty_batches(self):
        assert flip_bits_batch(1, "int32", []) == []


# ----------------------------------------------------------------------
# Draw-plan properties: subset, no duplicates, determinism.
# ----------------------------------------------------------------------
class TestPlanStrata:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_strata_are_a_permutation_free_partition(self, seed):
        campaign = Campaign(MixTarget(), mix_config())
        strata = plan_strata(campaign, SamplingSpec(seed=seed))
        drawn = [pair for order in strata.values() for pair in order]
        full = plan_pairs(campaign)
        assert len(drawn) == len(set(drawn))          # no duplicates
        assert set(drawn) == set(full)                # exactly the space
        for variable, order in strata.items():
            assert all(pair[0] == variable for pair in order)

    def test_draw_order_is_seed_deterministic(self):
        campaign = Campaign(MixTarget(), mix_config())
        first = plan_strata(campaign, SamplingSpec(seed=11))
        second = plan_strata(campaign, SamplingSpec(seed=11))
        other = plan_strata(campaign, SamplingSpec(seed=12))
        assert first == second
        assert first != other

    def test_order_depends_on_stratum_identity_not_schedule(self):
        campaign = Campaign(MixTarget(), mix_config())
        full = plan_strata(campaign, SamplingSpec(seed=5))
        restricted = plan_strata(
            campaign,
            SamplingSpec(seed=5),
            pairs=[p for p in plan_pairs(campaign) if p[0] == "alpha"],
        )
        # A restricted frame reshuffles identically: same stratum seed.
        assert restricted["alpha"] == [
            p for p in full["alpha"] if p in set(restricted["alpha"])
        ]


# ----------------------------------------------------------------------
# Sampled campaign: subset bit-identity, determinism, invariance.
# ----------------------------------------------------------------------
class TestSampledCampaign:
    SPEC = SamplingSpec(target_halfwidth=0.12, min_cells=8, round_cells=8, seed=9)

    def test_records_are_bit_identical_exhaustive_subset(self):
        config = mix_config()
        exhaustive = {
            record_key(r): r.to_dict()
            for r in Campaign(MixTarget(), config).run().records
        }
        sampled = Campaign(MixTarget(), config).run(
            sampling=self.SPEC
        )
        keys = [record_key(r) for r in sampled.records]
        assert len(keys) == len(set(keys))            # no duplicates
        assert 0 < len(keys) < len(exhaustive)        # a strict subset
        for record in sampled.records:
            assert record.to_dict() == exhaustive[record_key(record)]

    def test_canonical_order_is_preserved(self):
        config = mix_config()
        order = {
            record_key(r): i
            for i, r in enumerate(Campaign(MixTarget(), config).run().records)
        }
        sampled = Campaign(MixTarget(), config).run(
            sampling=self.SPEC
        )
        positions = [order[record_key(r)] for r in sampled.records]
        assert positions == sorted(positions)

    def test_same_seed_same_draws_different_seed_different(self):
        config = mix_config()
        first = Campaign(MixTarget(), config).run(sampling=self.SPEC)
        second = Campaign(MixTarget(), config).run(sampling=self.SPEC)
        assert table(first) == table(second)
        assert first.sampling.to_dict() == second.sampling.to_dict()
        reseeded = Campaign(MixTarget(), config).run(
            sampling=SamplingSpec(
                target_halfwidth=0.12, min_cells=8, round_cells=8, seed=10
            ),
        )
        assert {record_key(r) for r in reseeded.records} != {
            record_key(r) for r in first.records
        }

    def test_worker_count_invariance(self):
        config = mix_config()
        serial = Campaign(MixTarget(), config).run(
            sampling=self.SPEC, pool=SerialPool()
        )
        clear_reuse_caches()
        pool = ProcessPool(jobs=3)
        try:
            parallel = Campaign(MixTarget(), config).run(
                sampling=self.SPEC, pool=pool
            )
        finally:
            pool.close()
        assert table(parallel) == table(serial)
        assert parallel.sampling.to_dict() == serial.sampling.to_dict()

    def test_early_stop_saves_runs_and_reports_convergence(self):
        config = mix_config(bits=tuple(range(16)), test_cases=(0, 1, 2))
        result = Campaign(MixTarget(), config).run(
            sampling=SamplingSpec(
                target_halfwidth=0.2, min_cells=12, round_cells=12, seed=1
            ),
        )
        report = result.sampling
        assert report.cells_sampled < report.cells_total
        assert all(
            s.stopped in ("converged", "exhausted", "capped")
            for s in report.strata
        )
        assert any(s.stopped == "converged" for s in report.strata)
        for stratum in report.strata:
            if stratum.stopped == "converged":
                assert stratum.halfwidth <= stratum.target_halfwidth
                assert stratum.sampled >= 12

    def test_max_cells_caps_a_stratum(self):
        config = mix_config()
        result = Campaign(MixTarget(), config).run(
            sampling=SamplingSpec(
                target_halfwidth=0.01,  # unreachable: forces the cap
                min_cells=4,
                round_cells=4,
                max_cells=8,
                seed=2,
            ),
        )
        for stratum in result.sampling.strata:
            assert stratum.stopped in ("capped", "exhausted")
            assert stratum.sampled <= 8

    def test_report_round_trips_through_json(self):
        config = mix_config()
        result = Campaign(MixTarget(), config).run(
            sampling=self.SPEC
        )
        payload = json.loads(json.dumps(result.to_dict()))
        back = CampaignResult.from_dict(payload)
        assert isinstance(back.sampling, SamplingReport)
        assert back.sampling.to_dict() == result.sampling.to_dict()
        assert table(back) == table(result)

    def test_after_run_subclasses_refuse_sampling(self):
        class Observing(Campaign):
            def _after_run(self, harness, record):
                pass

        with pytest.raises(ValueError, match="cannot sample"):
            Observing(MixTarget(), mix_config()).run(sampling=SamplingSpec())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign mode"):
            Campaign(MixTarget(), mix_config()).run(sampling="stochastic")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SamplingSpec(ci="jeffreys")
        with pytest.raises(ValueError):
            SamplingSpec(confidence=1.0)
        with pytest.raises(ValueError):
            SamplingSpec(target_halfwidth=0.5)
        with pytest.raises(ValueError):
            SamplingSpec(min_cells=0)
        with pytest.raises(ValueError):
            SamplingSpec(min_cells=16, max_cells=8)


# ----------------------------------------------------------------------
# Resume and pooled interop: sampled shards written by a pool or lost
# to a kill are the same store shards a serial rerun finds.
# ----------------------------------------------------------------------
class TestJournalInterop:
    SPEC = SamplingSpec(target_halfwidth=0.12, min_cells=8, round_cells=8, seed=9)

    def test_exhaustive_reuses_sampled_shards(self, tmp_path):
        from repro.injection.store import CampaignStore

        config = mix_config()
        with ProcessPool(2, backoff=0) as pool:
            sampled = Campaign(MixTarget(), config).run(
                pool=pool, sampling=self.SPEC,
                store=CampaignStore(tmp_path),
            )
        runs_per_pair = len(config.injection_times) * len(config.test_cases)
        exhaustive = Campaign(MixTarget(), config).run(
            store=CampaignStore(tmp_path)
        )
        assert exhaustive.orchestration["stored"] == (
            len(sampled.records) // runs_per_pair
        )
        assert table(exhaustive) == table(Campaign(MixTarget(), config).run())

    def test_sampled_reuses_exhaustive_shards_fully(self, tmp_path):
        from repro.injection.store import CampaignStore

        config = mix_config()
        with ProcessPool(2, backoff=0) as pool:
            Campaign(MixTarget(), config).run(
                pool=pool, store=CampaignStore(tmp_path)
            )
        before = sorted(path.name for path in (tmp_path / "shards").iterdir())
        sampled = Campaign(MixTarget(), config).run(
            sampling=self.SPEC, store=CampaignStore(tmp_path)
        )
        # Every draw was answered from the store: no new shard files.
        assert sorted(
            path.name for path in (tmp_path / "shards").iterdir()
        ) == before
        exhaustive = {
            record_key(r): r.to_dict()
            for r in Campaign(MixTarget(), config).run().records
        }
        for record in sampled.records:
            assert record.to_dict() == exhaustive[record_key(record)]

    def test_resume_replays_identical_draws(self, tmp_path):
        from repro.injection.store import CampaignStore

        config = mix_config()
        first = Campaign(MixTarget(), config).run(
            sampling=self.SPEC, store=CampaignStore(tmp_path)
        )
        # A kill mid-campaign: some drawn shards never landed and the
        # index was never flushed.
        lost = sorted((tmp_path / "shards").iterdir())[1::2]
        for path in lost:
            path.unlink()
        (tmp_path / "index.json").unlink()
        resumed = Campaign(MixTarget(), config).run(
            sampling=self.SPEC, store=CampaignStore(tmp_path)
        )
        assert resumed.orchestration["executed"] == len(lost)
        assert table(resumed) == table(first)
        assert resumed.sampling.to_dict() == first.sampling.to_dict()


# ----------------------------------------------------------------------
# Campaign-store interop: sampled and exhaustive campaigns of the same
# slice share store shards in both directions (the store key drops the
# variable/bit selection; shard ``pairs`` carry it).
# ----------------------------------------------------------------------
class TestStoreInterop:
    SPEC = SamplingSpec(target_halfwidth=0.12, min_cells=8, round_cells=8, seed=9)

    def test_exhaustive_reuses_sampled_store_shards(self, tmp_path):
        from repro.injection.store import CampaignStore

        config = mix_config()
        store = CampaignStore(tmp_path / "store")
        sampled = Campaign(MixTarget(), config).run(
            sampling=self.SPEC, store=store
        )
        runs_per_pair = len(config.injection_times) * len(config.test_cases)
        exhaustive = Campaign(MixTarget(), config).run(store=store)
        # Every sampled pair's shard loads from the store; only the
        # un-drawn remainder of the enumeration executes.
        assert exhaustive.orchestration["stored"] == (
            len(sampled.records) // runs_per_pair
        )
        # ... and the merged exhaustive run is still canonical.
        assert table(exhaustive) == table(Campaign(MixTarget(), config).run())

    def test_sampled_reuses_exhaustive_store_fully(self, tmp_path):
        from repro.injection.store import CampaignStore

        config = mix_config()
        store = CampaignStore(tmp_path / "store")
        Campaign(MixTarget(), config).run(store=store)
        writes_before = store.counters["writes"]
        hits_before = store.counters["hits"]
        sampled = Campaign(MixTarget(), config).run(
            sampling=self.SPEC, store=store
        )
        # Every draw was answered from the store: no new shards.
        assert store.counters["writes"] == writes_before
        assert store.counters["hits"] > hits_before
        exhaustive = {
            record_key(r): r.to_dict()
            for r in Campaign(MixTarget(), config).run().records
        }
        for record in sampled.records:
            assert record.to_dict() == exhaustive[record_key(record)]

    def test_store_resume_replays_identical_draws(self, tmp_path):
        from repro.injection.store import CampaignStore

        config = mix_config()
        store = CampaignStore(tmp_path / "store")
        first = Campaign(MixTarget(), config).run(
            sampling=self.SPEC, store=store
        )
        resumed = Campaign(MixTarget(), config).run(
            sampling=self.SPEC, store=store
        )
        assert table(resumed) == table(first)
        assert resumed.sampling.to_dict() == first.sampling.to_dict()


# ----------------------------------------------------------------------
# Golden-run caching (the hoisted capture) never changes a record.
# ----------------------------------------------------------------------
class TestGoldenCache:
    def test_cache_hits_return_identical_runs(self):
        target = MixTarget()
        first = golden_runs_for(target, (0, 1))
        second = golden_runs_for(target, (0, 1))
        assert all(second[tc] is first[tc] for tc in (0, 1))

    def test_cached_and_uncached_campaigns_are_bit_identical(self):
        config = mix_config()
        warm = Campaign(MixTarget(), config).run()  # populates the cache
        cached = Campaign(MixTarget(), config).run()
        with reuse_caches_disabled():
            cold = Campaign(MixTarget(), config).run()
        assert table(cached) == table(warm)
        assert table(cold) == table(warm)

    def test_disabled_cache_captures_fresh(self):
        target = MixTarget()
        golden_runs_for(target, (0,))
        with reuse_caches_disabled():
            fresh = golden_runs_for(target, (0,))
            again = golden_runs_for(target, (0,))
        assert fresh[0] is not again[0]

    def test_identity_based_state_is_never_cached(self):
        class Closure(MixTarget):
            def __init__(self):
                self._fn = lambda x: x  # repr carries a memory address

        assert Closure().fingerprint() is None
        first = golden_runs_for(Closure(), (0,))
        second = golden_runs_for(Closure(), (0,))
        assert first[0] is not second[0]

    def test_distinct_configurations_do_not_collide(self):
        class Scaled(MixTarget):
            def __init__(self, gain):
                self.gain = gain

            def run(self, test_case, harness):
                return super().run(test_case, harness) * self.gain

        a = golden_runs_for(Scaled(1), (0,))
        b = golden_runs_for(Scaled(2), (0,))
        assert a[0].output != b[0].output


# ----------------------------------------------------------------------
# Interval coverage on a synthetic Bernoulli space.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("ci", "floor"),
    [("clopper-pearson", 0.90), ("wilson", 0.85)],
)
def test_interval_coverage_is_at_least_nominal(ci, floor):
    """Across independent seeds, the 95% interval for the fail rate of
    the Bernoulli stratum must contain the true rate at least the
    nominal fraction of the time (minus Monte-Carlo slack; Wilson is
    approximate, so its floor is looser than exact Clopper-Pearson's).
    Sampling is without replacement from the 64-cell space, which only
    makes the binomial intervals conservative."""
    trials = 40
    hits = 0
    for seed in range(trials):
        result = Campaign(BernoulliTarget(), BERNOULLI_CONFIG).run(
            sampling=SamplingSpec(
                ci=ci,
                target_halfwidth=0.01,  # unreachable at n=24: cap decides
                min_cells=24,
                round_cells=24,
                max_cells=24,
                seed=seed,
            ),
        )
        stratum = result.sampling.stratum("x")
        assert stratum.sampled == 24
        estimate = stratum.classes["fail"]
        if estimate.low <= TRUE_RATE <= estimate.high:
            hits += 1
    assert hits / trials >= floor, f"{ci} coverage {hits}/{trials}"


def test_estimates_match_true_rates_on_full_exhaustion():
    """A stratum that exhausts its space reports the exact rates."""
    result = Campaign(BernoulliTarget(), BERNOULLI_CONFIG).run(
        sampling=SamplingSpec(target_halfwidth=0.01, min_cells=64, round_cells=64),
    )
    stratum = result.sampling.stratum("x")
    assert stratum.stopped == "exhausted"
    assert stratum.sampled == stratum.population == 64
    assert stratum.classes["fail"].rate == pytest.approx(TRUE_RATE)
    assert stratum.classes["crash"].count == 0
