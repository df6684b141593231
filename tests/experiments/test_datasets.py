"""Tests for the Table II dataset registry, scales and the campaign
store behind dataset generation."""

import numpy as np
import pytest

from repro.experiments.datasets import (
    DATASET_SPECS,
    build_target,
    campaign_config,
    generate_campaign,
    generate_dataset,
)
from repro.experiments.scale import SCALES, get_scale
from repro.injection.instrument import Location


class TestSpecs:
    def test_eighteen_datasets(self):
        assert len(DATASET_SPECS) == 18

    def test_location_pairs(self):
        # K=1: entry/entry, K=2: entry/exit, K=3: exit/exit (Table II).
        for name, spec in DATASET_SPECS.items():
            k = int(name[-1])
            expected = {
                1: (Location.ENTRY, Location.ENTRY),
                2: (Location.ENTRY, Location.EXIT),
                3: (Location.EXIT, Location.EXIT),
            }[k]
            assert (spec.injection_location, spec.sample_location) == expected

    def test_module_letters(self):
        assert DATASET_SPECS["7Z-A1"].module == "FHandle"
        assert DATASET_SPECS["7Z-B1"].module == "LDecode"
        assert DATASET_SPECS["FG-A1"].module == "Gear"
        assert DATASET_SPECS["FG-B1"].module == "Mass"
        assert DATASET_SPECS["MG-A1"].module == "GAnalysis"
        assert DATASET_SPECS["MG-B1"].module == "RGain"


class TestScales:
    def test_registry(self):
        assert set(SCALES) == {"smoke", "bench", "paper"}
        assert get_scale("bench").name == "bench"
        with pytest.raises(ValueError):
            get_scale("gigantic")

    def test_paper_scale_matches_paper(self):
        paper = get_scale("paper")
        assert paper.sz_n_files == 25
        assert len(paper.sz_test_cases) == 250
        assert len(paper.sz_injection_times) == 4
        assert paper.fg_iterations == (500, 2200)
        assert len(paper.fg_injection_times) == 3
        assert paper.folds == 10
        # Full bit coverage, as in the paper.
        assert paper.sz_bits["int32"] == tuple(range(32))
        assert paper.sz_bits["float64"] == tuple(range(64))
        # Refinement grid: 10 undersampling + 15 oversampling levels,
        # k in [1, 15].
        grid = paper.grid
        assert len(grid.undersample_levels) == 10
        assert len(grid.oversample_levels) == 15
        assert grid.neighbour_counts == tuple(range(1, 16))

    def test_fg_paper_injection_times(self):
        # 600/1200/1800 iterations after the 500-iteration init.
        paper = get_scale("paper")
        assert paper.fg_injection_times == (1100, 1700, 2300)


class TestBuilders:
    def test_build_targets(self):
        scale = get_scale("smoke")
        assert build_target("7Z", scale).name == "7Z"
        assert build_target("FG", scale).name == "FG"
        assert build_target("MG", scale).name == "MG"
        with pytest.raises(ValueError):
            build_target("XX", scale)

    def test_campaign_config_per_target(self):
        scale = get_scale("smoke")
        config = campaign_config(DATASET_SPECS["FG-B2"], scale)
        assert config.module == "Mass"
        assert config.injection_location is Location.ENTRY
        assert config.sample_location is Location.EXIT
        assert config.test_cases == scale.fg_test_cases


class TestGeneration:
    def test_generate_and_cache(self, tmp_path):
        ds = generate_dataset("MG-B1", "smoke", cache_dir=tmp_path)
        assert len(ds) > 0
        assert ds.name == "MG-B1"
        assert list((tmp_path / "store" / "shards").iterdir())
        # Second call loads the store and yields an identical dataset.
        again = generate_dataset("MG-B1", "smoke", cache_dir=tmp_path)
        assert np.array_equal(again.x, ds.x)
        assert np.array_equal(again.y, ds.y)

    def test_no_cache_mode(self, tmp_path):
        generate_dataset("MG-B1", "smoke", cache_dir=tmp_path, use_cache=False)
        assert list(tmp_path.iterdir()) == []

    def test_target_edit_reinjects(self, tmp_path, monkeypatch):
        """Stored shards are only as fresh as the target source they
        came from: after an edit to a target module, generate_dataset
        must inject again instead of returning the old records."""
        import inspect

        from repro.injection.campaign import Campaign
        from repro.injection.store import CampaignStore
        import repro.targets.mp3gain.replaygain as replaygain

        executed = []
        real_run = Campaign.run

        def counting_run(self, *args, **kwargs):
            result = real_run(self, *args, **kwargs)
            executed.append(result.orchestration["executed"])
            return result

        monkeypatch.setattr(Campaign, "run", counting_run)
        first = generate_dataset("MG-B1", "smoke", cache_dir=tmp_path)
        generate_dataset("MG-B1", "smoke", cache_dir=tmp_path)
        assert executed[0] > 0
        assert executed[1] == 0

        # Edit RGain's module source as inspect (and so the module
        # fingerprint) sees it.
        real_getsource = inspect.getsource

        def edited_getsource(unit):
            text = real_getsource(unit)
            if unit is replaygain:
                text += "\nREFERENCE_LOUDNESS_DB = REFERENCE_LOUDNESS_DB + 0.0\n"
            return text

        monkeypatch.setattr(inspect, "getsource", edited_getsource)
        edited = generate_dataset("MG-B1", "smoke", cache_dir=tmp_path)
        assert executed[2] == executed[0]
        generate_dataset("MG-B1", "smoke", cache_dir=tmp_path)
        assert executed[3] == 0
        stale = CampaignStore(tmp_path / "store").stale_entries()
        assert len(stale) == executed[0]
        assert np.array_equal(edited.x, first.x)

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            generate_dataset("XX-Z9", "smoke")

    def test_configured_journal_dir_checkpoints_campaign(self, tmp_path):
        """A killed generation resumes: rerunning it against the same
        store executes only the shards that never landed, and a
        repeated generation executes none."""
        full = generate_campaign("MG-B1", "smoke", cache_dir=tmp_path)
        shards = sorted((tmp_path / "store" / "shards").iterdir())
        assert len(shards) == full.orchestration["tasks"]
        lost = shards[::3]
        for path in lost:
            path.unlink()
        (tmp_path / "store" / "index.json").unlink()
        resumed = generate_campaign("MG-B1", "smoke", cache_dir=tmp_path)
        assert resumed.orchestration["executed"] == len(lost)
        again = generate_campaign("MG-B1", "smoke", cache_dir=tmp_path)
        assert again.orchestration["executed"] == 0
        for result in (resumed, again):
            assert [r.to_dict() for r in result.records] == [
                r.to_dict() for r in full.records
            ]
