"""Lint framework over detectors, registries and injection campaigns.

The static checks in this package (:mod:`repro.analysis.simplify`,
:mod:`repro.analysis.redundancy`, :mod:`repro.analysis.surface`) each
answer one question about one artefact.  This module packages them as
*lint rules* -- named, severity-graded, individually selectable -- over
a :class:`LintContext` holding everything there is to lint: predicates
by name, optionally a registry and an injection surface with campaign
configurations.  ``repro lint`` / ``repro analyze`` (see
:mod:`repro.cli`) are thin shells around :class:`Linter`.

Rules are pluggable: subclass :class:`LintRule` and decorate it with
:func:`register_rule`, and every :class:`Linter` constructed without an
explicit rule list picks it up.

Rule catalog (see ``docs/analysis.md`` for the full write-up):

========================  ========  =============================================
rule                      severity  fires when
========================  ========  =============================================
unsatisfiable-clause      ERROR     a conjunctive clause can never fire
constant-predicate        ERROR     the whole predicate simplifies to TRUE/FALSE
tautological-clause       WARNING   an atom is implied by its clause context
subsumed-branch           WARNING   a disjunct is implied by a weaker sibling
vacuous-disjunction       WARNING   sibling branches jointly cover a variable's
                                    whole range (predicate is a definedness test)
interpreted-fallback      WARNING   a node outside the core algebra forces the
                                    runtime onto the interpreted path
redundant-atoms           INFO      a clause carries more atoms than needed
excessive-complexity      INFO      simplified predicate exceeds the atom budget
duplicate-detector        ERROR/    a registry pair is provably equivalent
                          WARNING   (ERROR) or one-way implied (WARNING), or
                          /INFO     shows battery overlap (INFO)
dead-injection            WARNING   a campaign injects into a variable the
                                    target never reads back
unpruned-exhaustive-      WARNING   a campaign estimated above the prune budget
campaign                            runs exhaustively (``prune`` unset) though
                                    static pruning could skip proven-dead points
prune-without-audit       WARNING   a statically pruned campaign disables the
                                    re-injection audit (``audit_fraction`` 0)
low-sample-stratum        WARNING   a sampled campaign's stratum stopped under
                          /ERROR    the sample floor or wider than its target
                                    half-width (WARNING); ERROR when a mining
                                    step consumed an estimate whose interval
                                    straddles the outcome-class boundary
stale-campaign-store      WARNING   a campaign document references a campaign
                                    store that is missing on disk, or one
                                    holding shard generations superseded by
                                    module edits (``repro store gc`` reclaims
                                    them)
========================  ========  =============================================
"""

from __future__ import annotations

import dataclasses
import enum
import json
from collections.abc import Iterable, Iterator

from repro.analysis.redundancy import analyze_registry
from repro.analysis.simplify import SimplificationResult, simplify_predicate
from repro.analysis.surface import SurfaceReport, check_campaign
from repro.core.predicate import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    Predicate,
    TruePredicate,
)

__all__ = [
    "Severity",
    "Finding",
    "LintContext",
    "LintRule",
    "Linter",
    "register_rule",
    "default_rules",
    "render_text",
    "render_json",
    "exit_code",
]


class Severity(enum.IntEnum):
    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{', '.join(s.name.lower() for s in cls)}"
            ) from None


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint finding against one subject."""

    rule: str
    severity: Severity
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.subject}: {self.message} [{self.rule}]"


@dataclasses.dataclass
class LintContext:
    """Everything a lint run can look at.

    ``predicates`` maps subject names to predicates; ``registry``,
    ``surface`` and ``campaigns`` are optional -- rules that need an
    absent piece simply produce nothing.
    """

    predicates: dict[str, Predicate] = dataclasses.field(default_factory=dict)
    registry: object | None = None  # duck-typed DetectorRegistry
    surface: SurfaceReport | None = None
    campaigns: dict[str, object] = dataclasses.field(default_factory=dict)
    #: sampling reports of sampled campaigns (duck-typed
    #: repro.injection.sampling.SamplingReport, or its dict payload),
    #: by subject
    sampling: dict[str, object] = dataclasses.field(default_factory=dict)
    #: campaign-store roots referenced by campaign documents (path
    #: strings, or duck-typed repro.injection.store.CampaignStore),
    #: by subject
    stores: dict[str, object] = dataclasses.field(default_factory=dict)
    _simplified: dict[str, SimplificationResult] = dataclasses.field(
        default_factory=dict, repr=False
    )

    def simplification(self, subject: str) -> SimplificationResult:
        """Memoised :func:`simplify_predicate` for one subject."""
        result = self._simplified.get(subject)
        if result is None:
            result = simplify_predicate(self.predicates[subject])
            self._simplified[subject] = result
        return result


class LintRule:
    """Base class for lint rules.

    Subclasses set :attr:`name` and implement :meth:`check`, yielding
    :class:`Finding` objects.  Rules must not mutate the context beyond
    its memoisation cache.
    """

    name: str = ""

    def check(self, context: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def _verdict_findings(
        self, context: LintContext, status: str, severity: Severity
    ) -> Iterator[Finding]:
        """Findings for every clause verdict of ``status``."""
        for subject in context.predicates:
            for verdict in context.simplification(subject).verdicts_with(status):
                yield Finding(self.name, severity, subject, verdict.detail)


_RULES: dict[str, type[LintRule]] = {}


def register_rule(rule: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the default rule set."""
    if not rule.name:
        raise ValueError(f"{rule.__name__} has no name")
    _RULES[rule.name] = rule
    return rule


def default_rules() -> list[LintRule]:
    """Fresh instances of every registered rule, stable order."""
    return [_RULES[name]() for name in sorted(_RULES)]


@register_rule
class UnsatisfiableClauseRule(LintRule):
    """A conjunctive clause that no state can satisfy: the branch is
    dead weight and usually evidence of a mining or editing mistake."""

    name = "unsatisfiable-clause"

    def check(self, context: LintContext) -> Iterator[Finding]:
        yield from self._verdict_findings(context, "unsatisfiable", Severity.ERROR)


@register_rule
class ConstantPredicateRule(LintRule):
    """The predicate as a whole is provably TRUE or FALSE: it either
    flags every state (all false positives) or can never detect."""

    name = "constant-predicate"

    def check(self, context: LintContext) -> Iterator[Finding]:
        for subject in context.predicates:
            result = context.simplification(subject)
            simplified = result.simplified
            if isinstance(simplified, TruePredicate) and not isinstance(
                result.original, TruePredicate
            ):
                yield Finding(
                    self.name, Severity.ERROR, subject,
                    "predicate is provably TRUE: it fires on every state",
                )
            elif isinstance(simplified, FalsePredicate) and not isinstance(
                result.original, FalsePredicate
            ):
                yield Finding(
                    self.name, Severity.ERROR, subject,
                    "predicate is provably FALSE: it can never fire",
                )


@register_rule
class TautologicalClauseRule(LintRule):
    """An atom already implied by the rest of its clause."""

    name = "tautological-clause"

    def check(self, context: LintContext) -> Iterator[Finding]:
        yield from self._verdict_findings(context, "tautological", Severity.WARNING)


@register_rule
class SubsumedBranchRule(LintRule):
    """A disjunct implied by a weaker sibling: it never changes the
    verdict and slows every evaluation."""

    name = "subsumed-branch"

    def check(self, context: LintContext) -> Iterator[Finding]:
        yield from self._verdict_findings(context, "subsumed", Severity.WARNING)


@register_rule
class VacuousDisjunctionRule(LintRule):
    """Sibling branches jointly cover a variable's whole range, so the
    disjunction only tests that the variable is defined and non-NaN --
    rarely what a detector means."""

    name = "vacuous-disjunction"

    def check(self, context: LintContext) -> Iterator[Finding]:
        yield from self._verdict_findings(context, "vacuous", Severity.WARNING)


@register_rule
class RedundantAtomsRule(LintRule):
    """Clauses carrying more atoms than the canonical form needs, and
    sibling branches that merge into one interval."""

    name = "redundant-atoms"

    def check(self, context: LintContext) -> Iterator[Finding]:
        yield from self._verdict_findings(context, "redundant", Severity.INFO)
        yield from self._verdict_findings(context, "merged", Severity.INFO)


def _core_algebra(predicate: Predicate) -> bool:
    """Mirror of the compiler's lowering checks: True when every node
    is one the batch/scalar lowerers accept."""
    if isinstance(predicate, (TruePredicate, FalsePredicate, Comparison)):
        return True
    if isinstance(predicate, (And, Or)):
        return all(_core_algebra(child) for child in predicate.children)
    return False


@register_rule
class InterpretedFallbackRule(LintRule):
    """A node outside the core algebra forces
    :func:`repro.runtime.compile.compile_predicate` onto the
    interpreted path -- correct, but an order of magnitude slower."""

    name = "interpreted-fallback"

    def check(self, context: LintContext) -> Iterator[Finding]:
        for subject, predicate in context.predicates.items():
            if not _core_algebra(predicate):
                yield Finding(
                    self.name, Severity.WARNING, subject,
                    f"{type(predicate).__name__} contains nodes outside the "
                    "core algebra; the runtime will serve it interpreted",
                )


@register_rule
class ExcessiveComplexityRule(LintRule):
    """Simplified predicate still larger than the atom budget."""

    name = "excessive-complexity"
    budget = 128

    def check(self, context: LintContext) -> Iterator[Finding]:
        for subject in context.predicates:
            result = context.simplification(subject)
            if result.atoms_after > self.budget:
                yield Finding(
                    self.name, Severity.INFO, subject,
                    f"{result.atoms_after} atoms after simplification "
                    f"(budget {self.budget}); consider splitting the detector",
                )


@register_rule
class DuplicateDetectorRule(LintRule):
    """Registry pairs that are provably equivalent (ERROR), one-way
    implied (WARNING) or overlapping on the evidence battery (INFO)."""

    name = "duplicate-detector"

    _SEVERITIES = {
        "equivalent": Severity.ERROR,
        "implies": Severity.WARNING,
        "implied_by": Severity.WARNING,
        "overlap": Severity.INFO,
    }

    def check(self, context: LintContext) -> Iterator[Finding]:
        if context.registry is None:
            return
        for finding in analyze_registry(context.registry):
            severity = self._SEVERITIES.get(finding.relation.relation)
            if severity is None:
                continue
            yield Finding(
                self.name, severity, f"{finding.left} / {finding.right}",
                f"{finding.relation.relation}: {finding.relation.detail}",
            )


@register_rule
class DeadInjectionRule(LintRule):
    """Campaign configurations spending runs on variables the analysed
    injection surface shows are never read back."""

    name = "dead-injection"

    def check(self, context: LintContext) -> Iterator[Finding]:
        if context.surface is None:
            return
        for subject, config in context.campaigns.items():
            for problem in check_campaign(config, context.surface):
                yield Finding(self.name, Severity.WARNING, subject, problem)


@register_rule
class UnprunedExhaustiveCampaignRule(LintRule):
    """Large campaign configurations that run exhaustively although
    :mod:`repro.analysis.prune` could prove part of the injection space
    dead or equivalent before any run executes.  Fires only above a
    run budget -- small campaigns finish before the analysis pays for
    itself."""

    name = "unpruned-exhaustive-campaign"
    budget = 10_000

    def check(self, context: LintContext) -> Iterator[Finding]:
        from repro.orchestration.tasks import estimate_runs

        for subject, config in context.campaigns.items():
            prune = getattr(config, "prune", None)
            if prune not in (None, "none"):
                continue
            surface = context.surface
            n_variables = None
            if surface is not None and hasattr(config, "injection_probe"):
                probe = config.injection_probe
                n_variables = len(
                    surface.variables_at(probe.module, probe.location)
                )
            runs = estimate_runs(config, n_variables=n_variables)
            if runs is not None and runs > self.budget:
                yield Finding(
                    self.name, Severity.WARNING, subject,
                    f"campaign estimates {runs} exhaustive runs (budget "
                    f"{self.budget}) with prune unset; static pruning "
                    "(prune=\"static\") skips points the dataflow analysis "
                    "proves dead or equivalent, with an audit guarding the "
                    "verdicts",
                )


@register_rule
class PruneWithoutAuditRule(LintRule):
    """Statically pruned campaigns running with the audit disabled:
    the audit's seeded re-injection of pruned points is the empirical
    check on the analyzer's soundness, and ``audit_fraction=0`` trades
    it away for a marginal saving."""

    name = "prune-without-audit"

    def check(self, context: LintContext) -> Iterator[Finding]:
        for subject, config in context.campaigns.items():
            if getattr(config, "prune", None) != "static":
                continue
            if getattr(config, "audit_fraction", 0.0) <= 0.0:
                yield Finding(
                    self.name, Severity.WARNING, subject,
                    "campaign prunes statically with audit_fraction=0: no "
                    "pruned point is ever re-injected, so an unsound "
                    "verdict would go undetected -- keep the default 5% "
                    "audit sample",
                )


@register_rule
class LowSampleStratumRule(LintRule):
    """Sampled campaigns whose per-stratum estimates are too weak to
    trust.  A stratum that stopped under the sample floor, or whose
    widest class interval never reached the configured stop target,
    only narrows with more draws (WARNING).  When a detector-mining
    step consumed the campaign's dataset (``mined``) and a class
    interval straddles the outcome-class decision boundary, the mined
    labels could flip inside the interval: ERROR."""

    name = "low-sample-stratum"

    @staticmethod
    def _report(document):
        if isinstance(document, dict):
            from repro.injection.sampling import SamplingReport

            return SamplingReport.from_dict(document)
        return document

    def check(self, context: LintContext) -> Iterator[Finding]:
        for subject in sorted(context.sampling):
            report = self._report(context.sampling[subject])
            spec = report.spec
            for stratum in report.strata:
                exhausted = (
                    stratum.population == 0
                    or stratum.sampled >= stratum.population
                )
                if exhausted:
                    # The whole frame executed: the estimate is exact,
                    # no interval can improve it.
                    continue
                prefix = f"stratum {stratum.stratum!r}"
                if stratum.sampled < spec.min_cells:
                    yield Finding(
                        self.name, Severity.WARNING, subject,
                        f"{prefix} stopped at {stratum.sampled} sampled "
                        f"cell(s), under the {spec.min_cells}-cell floor "
                        f"({stratum.stopped}); its intervals are too wide "
                        "to act on -- raise max_cells or the budget",
                    )
                elif stratum.halfwidth > stratum.target_halfwidth:
                    yield Finding(
                        self.name, Severity.WARNING, subject,
                        f"{prefix} stopped ({stratum.stopped}) with "
                        f"interval half-width {stratum.halfwidth:.3f} above "
                        f"the {stratum.target_halfwidth:.3f} target; the "
                        "estimate did not converge -- sample more cells or "
                        "relax the target",
                    )
                if not report.mined:
                    continue
                for class_name in stratum.straddles(spec.boundary):
                    estimate = stratum.classes[class_name]
                    yield Finding(
                        self.name, Severity.ERROR, subject,
                        f"{prefix} class {class_name!r} interval "
                        f"[{estimate.low:.3f}, {estimate.high:.3f}] "
                        f"straddles the {spec.boundary:.2f} decision "
                        "boundary and the campaign's dataset was mined: "
                        "the dominant outcome of the stratum is "
                        "statistically undecided -- sample it tighter or "
                        "run it exhaustively before mining",
                    )


@register_rule
class StaleCampaignStoreRule(LintRule):
    """Campaign documents referencing a store that has drifted: the
    store directory is gone (delta re-runs silently degrade to full
    re-execution), or it carries shard generations superseded by
    module edits (dead disk that ``repro store gc`` reclaims)."""

    name = "stale-campaign-store"

    def check(self, context: LintContext) -> Iterator[Finding]:
        import pathlib

        from repro.injection.store import CampaignStore

        for subject in sorted(context.stores):
            ref = context.stores[subject]
            store = (
                ref
                if hasattr(ref, "stale_entries")
                else CampaignStore(str(ref))
            )
            if not pathlib.Path(store.root).is_dir():
                yield Finding(
                    self.name, Severity.WARNING, subject,
                    f"campaign references store {str(store.root)!r} which "
                    "does not exist: the next run(store=...) re-executes "
                    "every shard instead of loading them",
                )
                continue
            stale = store.stale_entries()
            if stale:
                records = sum(entry.records for entry in stale)
                yield Finding(
                    self.name, Severity.WARNING, subject,
                    f"store {str(store.root)!r} holds {len(stale)} stale "
                    f"shard generation(s) ({records} record(s)) superseded "
                    "by module edits; run `repro store gc` to reclaim them",
                )


class Linter:
    """Run a rule set over a context.

    ``rules`` defaults to every registered rule; ``select``/``ignore``
    filter by rule name.
    """

    def __init__(
        self,
        rules: Iterable[LintRule] | None = None,
        select: Iterable[str] | None = None,
        ignore: Iterable[str] | None = None,
    ) -> None:
        chosen = list(rules) if rules is not None else default_rules()
        if select is not None:
            wanted = set(select)
            unknown = wanted - {rule.name for rule in chosen}
            if unknown:
                raise ValueError(f"unknown rules: {', '.join(sorted(unknown))}")
            chosen = [rule for rule in chosen if rule.name in wanted]
        if ignore is not None:
            dropped = set(ignore)
            chosen = [rule for rule in chosen if rule.name not in dropped]
        self.rules = chosen

    def run(self, context: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for rule in self.rules:
            findings.extend(rule.check(context))
        findings.sort(key=lambda f: (-f.severity, f.subject, f.rule, f.message))
        return findings


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def render_text(findings: list[Finding]) -> str:
    """One line per finding plus a severity tally."""
    lines = [str(finding) for finding in findings]
    if findings:
        tally = {}
        for finding in findings:
            tally[finding.severity] = tally.get(finding.severity, 0) + 1
        summary = ", ".join(
            f"{tally[severity]} {severity}"
            for severity in sorted(tally, reverse=True)
        )
        lines.append(f"{len(findings)} finding(s): {summary}")
    else:
        lines.append("no findings")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    return json.dumps(
        {
            "findings": [
                {
                    "rule": finding.rule,
                    "severity": str(finding.severity),
                    "subject": finding.subject,
                    "message": finding.message,
                }
                for finding in findings
            ],
            "count": len(findings),
        },
        indent=2,
    )


def exit_code(findings: list[Finding], fail_on: str = "error") -> int:
    """CLI exit status: 1 when any finding reaches ``fail_on``.

    ``fail_on`` is a severity name or ``"never"``.
    """
    if fail_on == "never":
        return 0
    threshold = Severity.parse(fail_on)
    return 1 if any(f.severity >= threshold for f in findings) else 0
