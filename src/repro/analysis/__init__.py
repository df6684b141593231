"""Error propagation analysis (the placement substrate).

The paper separates detector *design* (its contribution) from detector
*placement*, which it delegates to error propagation analysis --
"program locations are known, e.g., through techniques such as [14]"
(Hiller, Jhumka, Suri: "An approach for analysing the propagation of
data errors in software", DSN 2001).  This package implements that
substrate over the reproduction's campaign records:

* :mod:`repro.analysis.propagation` -- per-variable error permeability
  (how often a corruption of the variable propagates to failure),
  bit-region and injection-time profiles, and a ranking of variables /
  locations that detector placement would prioritise;
* :mod:`repro.analysis.coverage` -- Powell-style coverage estimation
  (binomial point estimate with Wilson and Clopper-Pearson intervals)
  and detection latency statistics for validated detectors;
* :mod:`repro.analysis.significance` -- paired and Nadeau-Bengio
  corrected t-tests over matched cross-validation folds, for claims of
  the form "model A beats model B on this dataset".

The static-verification half of the package reasons about detectors
without running them:

* :mod:`repro.analysis.intervals` -- the interval abstract domain the
  checker interprets the predicate algebra in;
* :mod:`repro.analysis.simplify` -- the abstract-interpretation checker
  and canonical simplifier (unsatisfiable / tautological / subsumed /
  vacuous clause verdicts, provably equivalent smaller predicates);
* :mod:`repro.analysis.redundancy` -- cross-detector diffing
  (equivalence / implication proofs, battery-evidence overlap);
* :mod:`repro.analysis.dataflow` -- intraprocedural CFG / reaching
  definitions / observation-channel analysis of target module ASTs,
  the evidence base for surface and prune verdicts;
* :mod:`repro.analysis.surface` -- AST injection-surface analysis of
  target modules (instrumentable variables, def-use, dead injections);
* :mod:`repro.analysis.prune` -- static injection-space pruning: per
  ``(variable, bit)`` dead / equivalent / live verdicts with record
  synthesis and a seeded re-injection audit;
* :mod:`repro.analysis.lint` -- the pluggable lint framework tying the
  above together behind ``repro lint`` / ``repro analyze``.
"""

from repro.analysis.propagation import (
    PropagationReport,
    VariablePropagation,
    analyse_propagation,
)
from repro.analysis.coverage import (
    CoverageEstimate,
    EfficiencyReport,
    LatencyStatistics,
    coverage_estimate,
    detector_efficiency_report,
    latency_statistics,
)
from repro.analysis.significance import (
    TTestResult,
    compare_fold_metrics,
    corrected_paired_t_test,
    paired_t_test,
)
from repro.analysis.intervals import Constraint, atom_constraint
from repro.analysis.simplify import (
    ClauseVerdict,
    SimplificationResult,
    check_predicate,
    simplify_predicate,
)
from repro.analysis.redundancy import (
    PredicateRelation,
    RedundancyFinding,
    analyze_registry,
    compare_predicates,
)
from repro.analysis.dataflow import (
    ModuleDataflow,
    VariableFlow,
    analyze_dataflow,
    analyze_dataflow_module,
    analyze_dataflow_package,
)
from repro.analysis.prune import (
    PointPlan,
    PruneContradiction,
    PrunePlan,
    plan_prune,
)
from repro.analysis.surface import (
    ProbeSite,
    SurfaceReport,
    SurfaceVariable,
    analyze_module,
    analyze_source,
    analyze_target_package,
    check_campaign,
)
from repro.analysis.lint import (
    Finding,
    LintContext,
    LintRule,
    Linter,
    Severity,
    default_rules,
    exit_code,
    register_rule,
    render_json,
    render_text,
)

__all__ = [
    "ClauseVerdict",
    "Constraint",
    "CoverageEstimate",
    "EfficiencyReport",
    "Finding",
    "LatencyStatistics",
    "LintContext",
    "LintRule",
    "Linter",
    "ModuleDataflow",
    "PointPlan",
    "PredicateRelation",
    "ProbeSite",
    "PropagationReport",
    "PruneContradiction",
    "PrunePlan",
    "RedundancyFinding",
    "Severity",
    "SimplificationResult",
    "SurfaceReport",
    "SurfaceVariable",
    "TTestResult",
    "VariableFlow",
    "VariablePropagation",
    "analyse_propagation",
    "analyze_dataflow",
    "analyze_dataflow_module",
    "analyze_dataflow_package",
    "analyze_module",
    "analyze_registry",
    "analyze_source",
    "analyze_target_package",
    "atom_constraint",
    "check_campaign",
    "check_predicate",
    "compare_fold_metrics",
    "compare_predicates",
    "corrected_paired_t_test",
    "coverage_estimate",
    "default_rules",
    "detector_efficiency_report",
    "exit_code",
    "latency_statistics",
    "paired_t_test",
    "plan_prune",
    "register_rule",
    "render_json",
    "render_text",
    "simplify_predicate",
]
