"""The instrumented Mp3Gain target.

A test case runs "a volume-level normalisation procedure ... [taking]
a set of 25 mp3 files of varying sizes as input and normalis[ing] the
volume across each file" (Section VI-C).  The observable output is the
CRC of every normalised 16-bit track; the failure specification is the
golden diff: "a test case execution was considered a failure if the
set of normalised output files were different from those generated by
the corresponding golden run".

The ``GAnalysis`` and ``RGain`` modules are each probed at entry and
exit once per track, so probe occurrence indices count files processed
-- the paper's injection-time unit for this target.
"""

from __future__ import annotations

import zlib

from repro.injection.instrument import Harness, Location, VariableSpec
from repro.targets.base import TargetSystem
from repro.targets.mp3gain.analysis import GAnalysisModule
from repro.targets.mp3gain.replaygain import RGainModule
from repro.targets.mp3gain.signal import make_batch

__all__ = ["Mp3GainTarget"]


class _BatchState:
    """One normalisation batch between two tracks: the input tracks,
    the two modules and the digests of the tracks done so far."""

    def __init__(self, tracks: list) -> None:
        self.tracks = tracks
        self.analysis = GAnalysisModule()
        self.gain = RGainModule()
        self.digests: list[int] = []


class Mp3GainTarget(TargetSystem):
    """Volume normaliser with instrumented ``GAnalysis`` and ``RGain``.

    Parameters
    ----------
    n_tracks:
        Tracks per test case (paper: 25).
    min_samples / max_samples:
        Track length range in samples ("files of varying sizes").
    """

    name = "MG"

    def __init__(
        self,
        n_tracks: int = 25,
        min_samples: int = 1024,
        max_samples: int = 4096,
    ) -> None:
        if n_tracks < 1:
            raise ValueError("need at least one track per test case")
        if not 64 <= min_samples <= max_samples:
            raise ValueError("track sizes must satisfy 64 <= min <= max")
        self.n_tracks = n_tracks
        self.min_samples = min_samples
        self.max_samples = max_samples

    @property
    def modules(self) -> tuple[str, ...]:
        return ("GAnalysis", "RGain")

    def variables_of(
        self, module: str, location: Location | None = None
    ) -> tuple[VariableSpec, ...]:
        self.check_module(module)
        if module == "GAnalysis":
            entry = (
                VariableSpec("track_index", "int32"),
                VariableSpec("frame_size", "int32"),
                VariableSpec("percentile", "float64"),
                VariableSpec("n_samples", "int32"),
                VariableSpec("rms_acc", "float64"),
                VariableSpec("peak_acc", "float64"),
            )
            exit_specs = (
                VariableSpec("track_index", "int32"),
                VariableSpec("frame_size", "int32"),
                VariableSpec("percentile", "float64"),
                VariableSpec("n_samples", "int32"),
                VariableSpec("loudness_db", "float64"),
                VariableSpec("peak", "float64"),
                VariableSpec("frame_count", "int32"),
            )
        else:
            entry = (
                VariableSpec("track_index", "int32"),
                VariableSpec("gain_db", "float64"),
                VariableSpec("reference_db", "float64"),
                VariableSpec("loudness_db", "float64"),
                VariableSpec("peak", "float64"),
                VariableSpec("clip_count", "int32"),
            )
            exit_specs = entry + (
                VariableSpec("applied_scale", "float64"),
                VariableSpec("out_rms", "float64"),
            )
        if location is Location.ENTRY:
            return entry
        if location is Location.EXIT:
            return exit_specs
        seen: dict[str, VariableSpec] = {}
        for spec in entry + exit_specs:
            seen.setdefault(spec.name, spec)
        return tuple(seen.values())

    def module_sources(self, module: str) -> tuple | None:
        # GAnalysis output feeds RGain within one batch run, so the
        # closure is conservatively the whole package: any edit
        # invalidates both modules' stored shards rather than risking a
        # stale hit.
        self.check_module(module)
        from repro.targets.mp3gain import analysis, replaygain, signal
        import repro.targets.mp3gain.target as target

        return (target, analysis, replaygain, signal)

    def start(self, test_case: int) -> _BatchState:
        return _BatchState(
            make_batch(test_case, self.n_tracks, self.min_samples, self.max_samples)
        )

    def advance(self, state: _BatchState, harness: Harness) -> bool:
        """Analyse and normalise the next track."""
        track_index = len(state.digests)
        if track_index >= len(state.tracks):
            return False
        samples = state.tracks[track_index]
        result = state.analysis.step(harness, track_index, samples)
        normalised = state.gain.step(harness, track_index, samples, result)
        state.digests.append(zlib.crc32(normalised.pcm16.tobytes()))
        return True

    def finish(self, state: _BatchState) -> object:
        return tuple(state.digests)

    def is_failure(self, golden_output: object, run_output: object) -> bool:
        return golden_output != run_output
