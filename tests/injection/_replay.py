"""Full-replay reference engine for injection campaigns.

Every cell replays its test case from the start (``checkpoint=None``),
the way the campaign loop ran before injected runs resumed from
golden-prefix checkpoints.  Tests compare the resuming data plane
against it record for record.
"""

from __future__ import annotations

from repro.injection.bitflip import BitFlip
from repro.injection.campaign import Campaign, ExperimentRecord
from repro.injection.golden import golden_runs_for


def replay_records(campaign: Campaign) -> list[ExperimentRecord]:
    """Every record of ``campaign`` in canonical order, fully replayed."""
    config = campaign.config
    golden_runs = golden_runs_for(campaign.target, config.test_cases)
    return [
        campaign._run_one(
            BitFlip(spec.name, spec.kind, bit),
            injection_time,
            tc,
            golden_runs[tc],
        )
        for spec in campaign._targeted_specs()
        for bit in campaign._bits_for(spec)
        for injection_time in config.injection_times
        for tc in config.test_cases
    ]
