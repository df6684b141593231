"""Fault injection environment (the reproduction's PROPANE analogue).

The paper performs its Step 1 with PROPANE (Propagation Analysis
Environment, Hiller et al. 2002): golden runs, single transient
bit-flip injection into instrumented module variables, state sampling
at module entry/exit, logging, and conversion of logs into data mining
input.  This subpackage rebuilds that pipeline for the Python target
systems of :mod:`repro.targets`:

* :mod:`repro.injection.instrument` -- probe points, variable specs and
  the harness interface instrumented targets call at module boundaries;
* :mod:`repro.injection.bitflip` -- the transient data value fault
  model: single bit flips in IEEE-754 doubles, fixed-width two's
  complement integers and booleans;
* :mod:`repro.injection.golden` -- golden (fault-free) run capture;
* :mod:`repro.injection.campaign` -- the experiment driver enumerating
  test cases x variables x bit positions x injection times;
* :mod:`repro.injection.logfmt` -- the PROPANE-style experiment log
  format (writer and parser);
* :mod:`repro.injection.readout` -- log/record conversion into
  :class:`repro.mining.dataset.Dataset` instances (the paper's
  PROPANE-to-ARFF conversion step);
* :mod:`repro.injection.failure` -- golden-run-diff failure
  specifications;
* :mod:`repro.injection.store` -- the persistent content-addressed
  campaign store that makes ``Campaign.run(store=...)`` a delta
  operation over module edits.
"""

from repro.injection.instrument import (
    GoldenHarness,
    Harness,
    InjectionHarness,
    Location,
    Probe,
    StateSample,
    VariableSpec,
)
from repro.injection.bitflip import (
    BitFlip,
    bit_width,
    flip_bit,
    flip_bits_batch,
)
from repro.injection.golden import GoldenRun, golden_runs_for
from repro.injection.campaign import Campaign, CampaignConfig, ExperimentRecord
from repro.injection.sampling import (
    SamplingReport,
    SamplingSpec,
    StratumEstimate,
)
from repro.injection.store import CampaignStore, StoreEligibilityWarning

__all__ = [
    "BitFlip",
    "Campaign",
    "CampaignConfig",
    "CampaignStore",
    "ExperimentRecord",
    "GoldenHarness",
    "GoldenRun",
    "Harness",
    "InjectionHarness",
    "Location",
    "Probe",
    "SamplingReport",
    "SamplingSpec",
    "StateSample",
    "StoreEligibilityWarning",
    "StratumEstimate",
    "VariableSpec",
    "bit_width",
    "flip_bit",
    "flip_bits_batch",
    "golden_runs_for",
]
