"""Full-replay reference engine for injection campaigns.

Every cell replays its test case from the start (``checkpoint=None``),
the way the campaign loop ran before injected runs resumed from
golden-prefix checkpoints, against golden runs from
:func:`~repro.injection.golden.capture_golden_run` -- one plain
``target.run`` per test case, independent of the stepping that feeds
the resuming data plane.  Tests compare that data plane against it
record for record.

:func:`counting_trail` is the matching reference for the golden
trail: the fault-free run stepped under a harness that only counts.
"""

from __future__ import annotations

import hashlib
import pickle

from repro.injection.bitflip import BitFlip
from repro.injection.campaign import Campaign, ExperimentRecord
from repro.injection.golden import capture_golden_run
from repro.injection.instrument import Harness


def replay_records(campaign: Campaign) -> list[ExperimentRecord]:
    """Every record of ``campaign`` in canonical order, fully replayed."""
    config = campaign.config
    golden_runs = {
        tc: capture_golden_run(campaign.target, tc) for tc in config.test_cases
    }
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


class CountingHarness(Harness):
    """Counts probe occurrences and records nothing: it is counting
    from the first probe, returning the caller's own mapping."""

    def __init__(self) -> None:
        super().__init__()
        self._counting = True


def counting_trail(target, test_case: int) -> tuple[tuple[bytes, ...], tuple[dict, ...]]:
    """``(state digests, probe counts)`` at every unit boundary of the
    fault-free run of ``test_case``, stepped under a
    :class:`CountingHarness`; the digest is 128-bit BLAKE2b of the
    pickled state, as in :class:`~repro.injection.golden.GoldenTrail`."""
    harness = CountingHarness()
    state = target.start(test_case)
    digests, counts = [], []
    while True:
        digests.append(hashlib.blake2b(pickle.dumps(state), digest_size=16).digest())
        counts.append(harness.occurrence_counts())
        if not target.advance(state, harness):
            return tuple(digests), tuple(counts)
