"""repro.serving -- synthetic event streams for served detectors.

:mod:`repro.serving.loadgen` synthesises seeded module states that
straddle a registry's published thresholds, so a stream exercises both
branches of every detector.  The package re-exports nothing: importing
the generator loads only the generator.
"""
