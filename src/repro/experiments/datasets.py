"""The 18 fault-injection datasets of Table II.

Each dataset is one (target system, module, injection location,
sampling location) combination; Table II names them ``<SYS>-<M><K>``
where M is A/B for the system's two modules and K in 1..3 selects the
location pair: 1 = entry/entry, 2 = entry/exit, 3 = exit/exit.

:func:`generate_dataset` runs the campaign at a given scale (caching
its shards in the content-addressed campaign store, so Step 1 runs
once per dataset, scale and target source) and converts it to a mining
dataset via :mod:`repro.injection.readout` -- the paper's Step 2
format transformation.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib

from repro.injection.campaign import Campaign, CampaignConfig, CampaignResult
from repro.injection.instrument import Location
from repro.injection.store import CampaignStore
from repro.mining.dataset import Dataset
from repro.experiments.scale import Scale, get_scale
from repro.targets import FlightGearTarget, Mp3GainTarget, SevenZipTarget
from repro.targets.base import TargetSystem

__all__ = [
    "DatasetSpec",
    "DATASET_SPECS",
    "UnknownDataset",
    "dataset_spec",
    "build_target",
    "campaign_config",
    "generate_campaign",
    "generate_dataset",
    "default_cache_dir",
]

_LOCATION_PAIRS = {
    1: (Location.ENTRY, Location.ENTRY),
    2: (Location.ENTRY, Location.EXIT),
    3: (Location.EXIT, Location.EXIT),
}


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """One Table II row."""

    name: str
    target: str   # "7Z" | "FG" | "MG"
    module: str
    injection_location: Location
    sample_location: Location


def _specs() -> dict[str, DatasetSpec]:
    modules = {
        "7Z": ("FHandle", "LDecode"),
        "FG": ("Gear", "Mass"),
        "MG": ("GAnalysis", "RGain"),
    }
    out: dict[str, DatasetSpec] = {}
    for target, (module_a, module_b) in modules.items():
        for letter, module in (("A", module_a), ("B", module_b)):
            for k, (inject, sample) in _LOCATION_PAIRS.items():
                name = f"{target}-{letter}{k}"
                out[name] = DatasetSpec(name, target, module, inject, sample)
    return out


#: Table II, keyed by dataset name ("7Z-A1" ... "MG-B3").
DATASET_SPECS: dict[str, DatasetSpec] = _specs()


def build_target(target: str, scale: Scale) -> TargetSystem:
    """Instantiate a target system at the given scale."""
    if target == "7Z":
        lo, hi = scale.sz_size_range
        return SevenZipTarget(n_files=scale.sz_n_files, min_size=lo, max_size=hi)
    if target == "MG":
        lo, hi = scale.mg_sample_range
        return Mp3GainTarget(
            n_tracks=scale.mg_n_tracks, min_samples=lo, max_samples=hi
        )
    if target == "FG":
        init_iters, run_iters = scale.fg_iterations
        return FlightGearTarget(
            init_iterations=init_iters, run_iterations=run_iters, dt=scale.fg_dt
        )
    raise ValueError(f"unknown target {target!r}")


def campaign_config(spec: DatasetSpec, scale: Scale) -> CampaignConfig:
    """The campaign parameters for one dataset at one scale."""
    if spec.target == "7Z":
        test_cases, times, bits = (
            scale.sz_test_cases,
            scale.sz_injection_times,
            scale.sz_bits,
        )
    elif spec.target == "MG":
        test_cases, times, bits = (
            scale.mg_test_cases,
            scale.mg_injection_times,
            scale.mg_bits,
        )
    else:
        test_cases, times, bits = (
            scale.fg_test_cases,
            scale.fg_injection_times,
            scale.fg_bits,
        )
    return CampaignConfig(
        module=spec.module,
        injection_location=spec.injection_location,
        sample_location=spec.sample_location,
        test_cases=test_cases,
        injection_times=times,
        bits=bits,
    )


def default_cache_dir() -> pathlib.Path:
    """Campaign store location (override with $REPRO_CACHE)."""
    env = os.environ.get("REPRO_CACHE")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(__file__).resolve().parents[3] / ".cache" / "repro"


class UnknownDataset(ValueError):
    """A name that is no Table II dataset; the message lists the valid
    ids (both CLIs print it as an ``error:`` line and exit 2)."""


def dataset_spec(name: str) -> DatasetSpec:
    """The Table II dataset spec named ``name``."""
    spec = DATASET_SPECS.get(name)
    if spec is None:
        raise UnknownDataset(
            f"unknown dataset {name!r}; available: "
            f"{', '.join(sorted(DATASET_SPECS))}"
        )
    return spec


#: One store instance per store directory: an X2 dataset generated after
#: its X1 sibling in the same process takes the records the X1 run
#: handed over instead of executing (:mod:`repro.orchestration.campaigns`).
_STORES: dict[pathlib.Path, CampaignStore] = {}


def generate_campaign(
    name: str,
    scale: Scale | str = "bench",
    cache_dir: pathlib.Path | None = None,
    use_cache: bool = True,
) -> CampaignResult:
    """Run the named Table II dataset's campaign at the given scale.

    The shards live in the campaign store under ``cache_dir / "store"``
    (:mod:`repro.injection.store`), addressed by the target's source:
    later calls load them instead of re-running Step 1 until a target
    edit changes the address, and a killed call resumes where it
    stopped.  Calls share one store instance per directory, so an
    ``entry/exit`` dataset generated after its ``entry/entry``
    sibling reuses that campaign's injected runs.  ``use_cache=False``
    runs without the store.
    """
    if isinstance(scale, str):
        scale = get_scale(scale)
    spec = dataset_spec(name)
    campaign = Campaign(
        build_target(spec.target, scale), campaign_config(spec, scale)
    )
    if not use_cache:
        return campaign.run()
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    root = cache_dir / "store"
    store = _STORES.get(root)
    if store is None:
        store = _STORES[root] = CampaignStore(root)
    return campaign.run(store=store)


def generate_dataset(
    name: str,
    scale: Scale | str = "bench",
    cache_dir: pathlib.Path | None = None,
    use_cache: bool = True,
) -> Dataset:
    """Produce the named Table II dataset at the given scale (see
    :func:`generate_campaign` for the store)."""
    return generate_campaign(name, scale, cache_dir, use_cache).to_dataset(name)
