"""repro -- reproduction of "A Methodology for the Generation of
Efficient Error Detection Mechanisms" (Leeke, Arif, Jhumka, Anand;
DSN 2011).

The library has four layers, mirroring the paper's architecture:

* :mod:`repro.targets` -- modular target systems to protect (analogues
  of the paper's 7-Zip, FlightGear and Mp3Gain case studies);
* :mod:`repro.injection` -- the fault injection environment (PROPANE
  analogue): golden runs, transient single bit-flip injection, state
  sampling, logging and dataset extraction;
* :mod:`repro.mining` -- the data mining substrate (Weka analogue):
  C4.5 decision trees, rule induction, sampling/SMOTE, metrics and
  stratified cross-validation;
* :mod:`repro.core` -- the methodology itself: the four-step pipeline
  that turns fault injection data into efficient error detection
  predicates, plus detectors, refinement and re-injection validation.

On top of the four layers, :mod:`repro.runtime` serves the generated
detectors: predicate compilation (vectorised batch + scalar closure),
a versioned detector registry, a streaming micro-batch evaluation
engine with fault isolation, and runtime latency/detection metrics.
:mod:`repro.orchestration` runs the expensive steps -- injection
campaigns and refinement grids -- sharded across worker processes and
resumable through the content-addressed campaign store, bit-identical
to serial execution.

Quickstart::

    from repro import Methodology

    method = Methodology()
    outcome = method.run(dataset)          # steps 2-4 on an injection dataset
    print(outcome.refined.predicate)       # the detection predicate
    print(outcome.refined.evaluation.summary())  # FPR/TPR/AUC/Comp/Var
"""

from repro.mining import Attribute, ConfusionMatrix, Dataset, C45DecisionTree

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "ConfusionMatrix",
    "Dataset",
    "C45DecisionTree",
    "__version__",
]


def __getattr__(name: str):
    # Lazy imports keep `import repro` cheap and avoid circular imports
    # while the higher layers are assembled on top of repro.mining.
    if name in ("Methodology", "MethodologyOutcome"):
        from repro.core import methodology

        return getattr(methodology, name)
    if name == "Detector":
        from repro.core.detector import Detector

        return Detector
    if name == "Predicate":
        from repro.core.predicate import Predicate

        return Predicate
    if name in ("ProcessPool", "SerialPool", "make_pool"):
        from repro import orchestration

        return getattr(orchestration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
