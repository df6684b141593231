"""Experiment R-10: compositional campaign store across Table II.

For every Table II dataset, populate a campaign store with the
exhaustive campaign, apply a *representative single-module edit* to
each target system -- module A of each target gains one definition,
leaving module B's source closure untouched -- and re-run every
campaign against the store.  The sweep reports, per dataset, how many
shards reloaded versus re-executed, and verifies the differential
contract on real targets: every warm record table must equal the
fresh run's bit-for-bit (``to_dict()`` equality), i.e. zero
divergences.

The edit is applied without touching the target sources on disk: the
target instance is re-classed to a dynamic subclass (same qualname,
so instance fingerprints are unchanged) whose ``module_sources``
appends one extra definition to the edited module's closure only --
exactly what editing that module's file would do to the fingerprints.

Run it from the root of a checkout::

    PYTHONPATH=src python benchmarks/store_sweep.py --scale smoke

``benchmarks/test_bench_store_sweep.py`` runs the same sweep under
pytest-benchmark and asserts its contract.
"""

from __future__ import annotations

import argparse
import shutil
import tempfile

from repro.experiments.datasets import (
    DATASET_SPECS,
    build_target,
    campaign_config,
)
from repro.experiments.reporting import render_table
from repro.experiments.scale import Scale, get_scale
from repro.injection.campaign import Campaign
from repro.injection.store import CampaignStore
from repro.mining.cache import clear_reuse_caches

__all__ = ["run", "render", "main", "EDITED_MODULES", "apply_representative_edit"]

#: The module each target's representative edit lands in (module A of
#: every Table II target): its datasets must re-execute, the module-B
#: datasets must reload every shard.
EDITED_MODULES = {"7Z": "FHandle", "FG": "Gear", "MG": "GAnalysis"}

#: The edit itself: one new definition appended to the module's
#: source closure, the smallest change a real patch could make.
EDIT_SOURCE = "def representative_edit():\n    return 10\n"


def apply_representative_edit(target, module: str):
    """Re-class ``target`` so ``module_sources(module)`` gains one
    definition -- the fingerprint effect of editing that module's
    file -- while every other module's closure is unchanged."""
    base = type(target)

    def module_sources(self, m):
        sources = base.module_sources(self, m)
        if sources is None or m != module:
            return sources
        return tuple(sources) + (EDIT_SOURCE,)

    subclass = type(base.__name__, (base,), {"module_sources": module_sources})
    # Same qualname: instance fingerprints (golden cache, shared
    # state) are those of the unedited class, as a file edit's would be.
    subclass.__module__ = base.__module__
    subclass.__qualname__ = base.__qualname__
    target.__class__ = subclass
    return target


def run(scale: Scale | str = "smoke", datasets=None):
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = list(datasets) if datasets is not None else sorted(DATASET_SPECS)
    root = tempfile.mkdtemp(prefix="repro-store-sweep-")
    store = CampaignStore(root)
    results = []
    try:
        cold_tables = {}
        for name in names:
            if name not in DATASET_SPECS:
                raise ValueError(f"unknown dataset {name!r}")
            spec = DATASET_SPECS[name]
            config = campaign_config(spec, scale)
            clear_reuse_caches()
            cold = Campaign(build_target(spec.target, scale), config).run(
                store=store
            )
            cold_tables[name] = [r.to_dict() for r in cold.records]

        for name in names:
            spec = DATASET_SPECS[name]
            config = campaign_config(spec, scale)
            edited_module = EDITED_MODULES.get(spec.target, spec.module)
            target = apply_representative_edit(
                build_target(spec.target, scale), edited_module
            )
            clear_reuse_caches()
            warm = Campaign(target, config).run(store=store)
            orchestration = warm.orchestration
            warm_table = [r.to_dict() for r in warm.records]
            edited = spec.module == edited_module
            # The edit adds an (unused) definition: fingerprints move,
            # behaviour does not -- so even re-executed shards must
            # reproduce the cold table bit-for-bit.
            divergences = sum(
                1
                for before, after in zip(cold_tables[name], warm_table)
                if before != after
            ) + abs(len(cold_tables[name]) - len(warm_table))
            results.append(
                {
                    "dataset": name,
                    "module": spec.module,
                    "edited_module": edited_module,
                    "edited": edited,
                    "shards": orchestration["tasks"],
                    "reused": orchestration["stored"],
                    # A shard a sibling's dual run answered was
                    # re-executed there.
                    "executed": orchestration["executed"]
                    + orchestration["sibling"],
                    "reused_fraction": (
                        orchestration["stored"] / orchestration["tasks"]
                        if orchestration["tasks"]
                        else 0.0
                    ),
                    "divergences": divergences,
                }
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return results


def render(results) -> str:
    rows = [
        [
            entry["dataset"],
            entry["module"],
            "yes" if entry["edited"] else "no",
            str(entry["shards"]),
            str(entry["reused"]),
            str(entry["executed"]),
            f"{entry['reused_fraction']:.0%}",
            str(entry["divergences"]),
        ]
        for entry in results
    ]
    total = sum(e["shards"] for e in results)
    reused = sum(e["reused"] for e in results)
    divergences = sum(e["divergences"] for e in results)
    table = render_table(
        ["Dataset", "Module", "Edited", "Shards", "Reused",
         "Re-run", "Frac", "Diverg"],
        rows,
        title="R-10 campaign-store delta after a representative module edit",
    )
    summary = (
        f"  shards reused across datasets: {reused}/{total}"
        f" ({reused / total:.1%}); divergences: {divergences}"
        if total
        else "  no shards"
    )
    return f"{table}\n{summary}"


def main(argv: list[str] | None = None) -> str:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="bench", choices=("smoke", "bench", "paper"))
    parser.add_argument("--datasets", nargs="*", default=None)
    args = parser.parse_args(argv)
    output = render(run(args.scale, args.datasets))
    print(output)
    return output


if __name__ == "__main__":
    main()
