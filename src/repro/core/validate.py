"""Runtime-assertion validation (Section VII-D, final paragraph).

"In order to further validate the correctness of the results
presented, a cross validation for each model had its predicate
implemented as a runtime assertion in its corresponding code location
... All fault injection experiments were then repeated to ensure that
the observed FPR and TPR values were commensurate with the rates
presented previously."

:class:`ValidationCampaign` repeats a campaign with a
:class:`~repro.core.detector.Detector` installed at the sampling probe:
on every probe occurrence from the injection onwards the detector's
predicate is evaluated against the live module state, and the run is
*flagged* if any evaluation fires.  The report cross-tabulates flags
against actual failures (observed TPR/FPR) and, as a bonus the offline
evaluation cannot provide, measures **detection latency** -- how many
probe occurrences after the injection the first detection happened.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.detector import Detector
from repro.injection.bitflip import BitFlip
from repro.injection.campaign import Campaign, CampaignConfig, ExperimentRecord
from repro.injection.instrument import InjectionHarness
from repro.mining.metrics import ConfusionMatrix

__all__ = ["ValidationCampaign", "ValidationReport", "RunVerdict"]


class _AssertingHarness(InjectionHarness):
    """Injection harness that also runs the detector at the sample probe.

    Two evaluation modes:

    * ``"single"`` (default) -- the assertion fires once, at the first
      sampling-probe occurrence at/after the injection.  This is the
      evaluation the predicate was *trained* for (each dataset
      instance is that state), so observed TPR/FPR are directly
      commensurate with the cross-validation estimates.
    * ``"continuous"`` -- the assertion runs at every occurrence from
      the injection onwards, as a permanently installed executable
      assertion would.  Accumulator-style variables drift across
      occurrences, so thresholds learned at the sampling point may
      mis-fire later; the gap between the two modes quantifies how
      location/time-specific a learned predicate is (cf. the paper's
      Section VI-A discussion of injection/sampling locations).

    ``monitor_all_probes`` runs the assertion at *every* instrumented
    probe rather than just the configured sampling probe -- the right
    semantics for composite detectors whose members guard different
    locations (:mod:`repro.core.composition`).
    """

    def __init__(
        self,
        detector: Detector,
        mode: str,
        *args,
        monitor_all_probes: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if mode not in ("single", "continuous"):
            raise ValueError(f"unknown validation mode {mode!r}")
        self._detector = detector
        self._mode = mode
        self._monitor_all = monitor_all_probes
        self._evaluated_once = False
        self.first_detection: int | None = None

    def _on_probe(self, key, occurrence, state):
        state = super()._on_probe(key, occurrence, state)
        at_monitored_probe = self._monitor_all or (
            self._sample_keys is not None and key in self._sample_keys
        )
        if (
            not at_monitored_probe
            or occurrence < self.injection_time
            or self.first_detection is not None
        ):
            return state
        if self._mode == "single" and self._evaluated_once:
            return state
        self._evaluated_once = True
        if self._detector.check(state):
            self.first_detection = occurrence
        return state


@dataclasses.dataclass
class RunVerdict:
    """Detector behaviour on one injected run."""

    record: ExperimentRecord
    flagged: bool
    detection_occurrence: int | None

    @property
    def latency(self) -> int | None:
        """Probe occurrences between injection and first detection."""
        if self.detection_occurrence is None:
            return None
        return self.detection_occurrence - self.record.injection_time


@dataclasses.dataclass
class ValidationReport:
    """Observed detector efficiency under re-injection."""

    verdicts: list[RunVerdict]
    confusion: ConfusionMatrix

    @property
    def observed_tpr(self) -> float:
        return self.confusion.true_positive_rate()

    @property
    def observed_fpr(self) -> float:
        return self.confusion.false_positive_rate()

    @property
    def mean_latency(self) -> float:
        """Mean detection latency over true positives (occurrences)."""
        latencies = [
            v.latency
            for v in self.verdicts
            if v.flagged and v.record.failed and v.latency is not None
        ]
        return float(np.mean(latencies)) if latencies else 0.0

    def commensurate_with(
        self, expected_tpr: float, expected_fpr: float, tolerance: float = 0.1
    ) -> bool:
        """The paper's check: observed rates match the CV estimates."""
        return (
            abs(self.observed_tpr - expected_tpr) <= tolerance
            and abs(self.observed_fpr - expected_fpr) <= tolerance
        )


class ValidationCampaign(Campaign):
    """A campaign with a runtime assertion installed."""

    def __init__(
        self,
        target,
        config: CampaignConfig,
        detector: Detector,
        mode: str = "single",
        monitor_all_probes: bool = False,
    ) -> None:
        super().__init__(target, config)
        self.detector = detector
        self.mode = mode
        self.monitor_all_probes = monitor_all_probes
        self._verdicts: list[RunVerdict] = []

    def _make_harness(self, flip: BitFlip, injection_time: int) -> InjectionHarness:
        return _AssertingHarness(
            self.detector,
            self.mode,
            self.config.injection_probe,
            flip,
            injection_time,
            sample_probe=self.config.sample_probe,
            monitor_all_probes=self.monitor_all_probes,
        )

    def _after_run(self, harness: InjectionHarness, record: ExperimentRecord) -> None:
        assert isinstance(harness, _AssertingHarness)
        self._verdicts.append(
            RunVerdict(
                record,
                flagged=harness.first_detection is not None,
                detection_occurrence=harness.first_detection,
            )
        )

    def validate(self) -> ValidationReport:
        """Run the campaign and report observed TPR/FPR/latency."""
        self._verdicts = []
        self.run()
        actual = np.array([v.record.failed for v in self._verdicts], dtype=np.int64)
        flagged = np.array([v.flagged for v in self._verdicts], dtype=np.int64)
        confusion = ConfusionMatrix.from_predictions(
            actual, flagged, ("nofail", "fail"), positive=1
        )
        return ValidationReport(list(self._verdicts), confusion)
