"""Statistical sampling campaigns: estimate instead of exhaust.

The paper's Step 1 enumerates the injection space -- every (variable,
bit, injection time, test case) cell -- exhaustively, which caps how
large a campaign can be.  ZOFI-style statistical fault injection shows
the quantities the methodology actually consumes (per-variable outcome
-class rates, failure skew, crash fractions) can be estimated to tight
confidence intervals from a randomized sample at a fraction of the
cost.  This module adds that mode as a *draw policy*: a sampled
campaign runs through the same :meth:`Campaign.run
<repro.injection.campaign.Campaign.run>` loop as an exhaustive or
pruned one (plan, draw, execute, assemble), and
:class:`StratifiedDraws` only decides which pairs each batch holds:

* **stratified draws** over the full cell enumeration, strata keyed by
  injection variable (the paper's natural outcome-class axis: Table
  III's skew is per-variable).  Draws are made at ``(variable, bit)``
  pair granularity -- one pair is exactly one orchestration shard, so
  sampled and exhaustive campaigns write and reuse the *same* store
  entries (store addresses are pair-anchored, like the pruned
  campaign's);
* **online confidence intervals** per (stratum, outcome class):
  Wilson score by default, exact Clopper-Pearson on request
  (:func:`repro.analysis.coverage.wilson_interval`,
  :func:`~repro.analysis.coverage.exact_interval`), each computing only
  the interval asked for;
* an **early-stop rule**: a stratum stops drawing once every outcome
  class's interval half-width is at or below the configured target
  (or its population is exhausted, or an explicit cell cap is hit).
  The draw order is derived from the seed and the stratum *identity*
  -- never from worker count or schedule -- so a resumed campaign
  replays the identical sequence of draws and decisions, with stored
  shards answering instantly.

Every sampled cell's record is produced by the ordinary shard
executor, so it is bit-identical to the record the exhaustive campaign
would have produced for that cell.  The assembled record list keeps
the canonical enumeration order restricted to the sampled subset
(plus the cells a static prune plan synthesizes).
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections.abc import Mapping

from repro import observability as obs
from repro.injection.campaign import ExperimentRecord
from repro.observability import names

__all__ = [
    "OUTCOME_CLASSES",
    "SamplingSpec",
    "ClassEstimate",
    "StratumEstimate",
    "SamplingReport",
    "outcome_class",
    "proportion_interval",
    "plan_strata",
    "StratifiedDraws",
]

#: Canonical outcome classes of one injected run, the estimands of a
#: sampled campaign.  ``fail`` means the failure specification was
#: violated without the run crashing; a crash is its own class (it is
#: also a failure by the campaign's definition, so the spec-violation
#: rate of a stratum is ``fail + crash``).
OUTCOME_CLASSES = ("ok", "fail", "crash")


def outcome_class(record: ExperimentRecord) -> str:
    if record.crashed:
        return "crash"
    return "fail" if record.failed else "ok"


def proportion_interval(
    count: int, n: int, method: str, confidence: float
) -> tuple[float, float]:
    """Two-sided binomial interval for ``count`` successes out of ``n``."""
    from repro.analysis.coverage import exact_interval, wilson_interval

    if method == "wilson":
        return wilson_interval(count, n, confidence)
    if method == "clopper-pearson":
        return exact_interval(count, n, confidence)
    raise ValueError(
        f"unknown interval method {method!r}; "
        "expected 'wilson' or 'clopper-pearson'"
    )


@dataclasses.dataclass(frozen=True)
class SamplingSpec:
    """Parameters of one sampling campaign.

    Parameters
    ----------
    ci:
        Interval estimator: ``"wilson"`` (default) or the exact
        ``"clopper-pearson"``.
    confidence:
        Two-sided confidence level of every reported interval.
    target_halfwidth:
        The early-stop rule: a stratum stops drawing once every
        outcome class's interval half-width is <= this target.
    min_cells:
        Per-stratum floor of sampled cells before the stop rule may
        fire (guards against a lucky tiny sample stopping a stratum).
    round_cells:
        Cells requested per stratum per round, rounded up to whole
        ``(variable, bit)`` pairs -- the draw (and store-shard)
        granularity.
    max_cells:
        Optional per-stratum cap; a stratum that hits it reports
        ``stopped="capped"`` with whatever width it reached.
    seed:
        Root of every stratum's draw order (via
        :func:`repro.orchestration.tasks.derive_seed` on the stratum
        identity, so the order is schedule- and worker-independent).
    boundary:
        The outcome-class decision boundary consumed by the
        ``low-sample-stratum`` lint rule: an estimate whose interval
        straddles it cannot say which side the true rate is on.
    """

    ci: str = "wilson"
    confidence: float = 0.95
    target_halfwidth: float = 0.05
    min_cells: int = 32
    round_cells: int = 256
    max_cells: int | None = None
    seed: int = 0
    boundary: float = 0.5

    def __post_init__(self) -> None:
        if self.ci not in ("wilson", "clopper-pearson"):
            raise ValueError(f"unknown interval method {self.ci!r}")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if not 0 < self.target_halfwidth < 0.5:
            raise ValueError("target_halfwidth must be in (0, 0.5)")
        if self.min_cells < 1 or self.round_cells < 1:
            raise ValueError("min_cells and round_cells must be >= 1")
        if self.max_cells is not None and self.max_cells < self.min_cells:
            raise ValueError("max_cells must be >= min_cells")

    def to_dict(self) -> dict:
        payload = {
            "ci": self.ci,
            "confidence": self.confidence,
            "target_halfwidth": self.target_halfwidth,
            "min_cells": self.min_cells,
            "round_cells": self.round_cells,
            "seed": self.seed,
            "boundary": self.boundary,
        }
        if self.max_cells is not None:
            payload["max_cells"] = self.max_cells
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SamplingSpec":
        return cls(
            ci=payload.get("ci", "wilson"),
            confidence=float(payload.get("confidence", 0.95)),
            target_halfwidth=float(payload.get("target_halfwidth", 0.05)),
            min_cells=int(payload.get("min_cells", 32)),
            round_cells=int(payload.get("round_cells", 256)),
            max_cells=(
                None
                if payload.get("max_cells") is None
                else int(payload["max_cells"])
            ),
            seed=int(payload.get("seed", 0)),
            boundary=float(payload.get("boundary", 0.5)),
        )


@dataclasses.dataclass(frozen=True)
class ClassEstimate:
    """One outcome class's estimated rate within one stratum."""

    count: int
    rate: float
    low: float
    high: float

    @property
    def halfwidth(self) -> float:
        return (self.high - self.low) / 2.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "rate": self.rate,
            "low": self.low,
            "high": self.high,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ClassEstimate":
        return cls(
            count=int(payload["count"]),
            rate=float(payload["rate"]),
            low=float(payload["low"]),
            high=float(payload["high"]),
        )


@dataclasses.dataclass
class StratumEstimate:
    """Per-stratum coverage estimate with full interval provenance."""

    stratum: str                      # injection variable name
    population: int                   # cells in the stratum's space
    sampled: int                      # cells actually executed
    classes: dict[str, ClassEstimate]
    method: str
    confidence: float
    target_halfwidth: float
    stopped: str                      # "converged" | "exhausted" | "capped"
    exact_cells: int = 0              # synthesized (prune) cells, exact
    exact_counts: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def halfwidth(self) -> float:
        """Widest class interval: the stratum's effective precision."""
        return max(e.halfwidth for e in self.classes.values())

    def straddles(self, boundary: float) -> list[str]:
        """Outcome classes whose interval contains ``boundary``."""
        return [
            cls_name
            for cls_name, e in sorted(self.classes.items())
            if e.low < boundary < e.high
        ]

    def to_dict(self) -> dict:
        return {
            "stratum": self.stratum,
            "population": self.population,
            "sampled": self.sampled,
            "classes": {
                name: e.to_dict() for name, e in sorted(self.classes.items())
            },
            "method": self.method,
            "confidence": self.confidence,
            "target_halfwidth": self.target_halfwidth,
            "stopped": self.stopped,
            "exact_cells": self.exact_cells,
            "exact_counts": dict(sorted(self.exact_counts.items())),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StratumEstimate":
        return cls(
            stratum=payload["stratum"],
            population=int(payload["population"]),
            sampled=int(payload["sampled"]),
            classes={
                name: ClassEstimate.from_dict(entry)
                for name, entry in payload["classes"].items()
            },
            method=payload["method"],
            confidence=float(payload["confidence"]),
            target_halfwidth=float(payload["target_halfwidth"]),
            stopped=payload["stopped"],
            exact_cells=int(payload.get("exact_cells", 0)),
            exact_counts={
                k: int(v) for k, v in payload.get("exact_counts", {}).items()
            },
        )


@dataclasses.dataclass
class SamplingReport:
    """What a sampled campaign measured, and how hard it had to work."""

    spec: SamplingSpec
    strata: list[StratumEstimate]
    cells_total: int          # full enumeration size (the space sampled)
    cells_sampled: int        # cells executed for real
    rounds: int
    mined: bool = False       # set when a mining dataset consumed this

    @property
    def sampled_fraction(self) -> float:
        return self.cells_sampled / self.cells_total if self.cells_total else 0.0

    def stratum(self, name: str) -> StratumEstimate | None:
        for estimate in self.strata:
            if estimate.stratum == name:
                return estimate
        return None

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "strata": [s.to_dict() for s in self.strata],
            "cells_total": self.cells_total,
            "cells_sampled": self.cells_sampled,
            "rounds": self.rounds,
            "mined": self.mined,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SamplingReport":
        return cls(
            spec=SamplingSpec.from_dict(payload.get("spec", {})),
            strata=[
                StratumEstimate.from_dict(s) for s in payload.get("strata", ())
            ],
            cells_total=int(payload["cells_total"]),
            cells_sampled=int(payload["cells_sampled"]),
            rounds=int(payload.get("rounds", 0)),
            mined=bool(payload.get("mined", False)),
        )


def plan_strata(
    campaign, spec: SamplingSpec, pairs=None
) -> dict[str, list[tuple[str, str, int]]]:
    """The per-stratum draw order over the (restricted) pair space.

    Returns ``{variable: [(variable, kind, bit), ...]}`` where each
    list is the stratum's full pair population in its seeded draw
    order.  The order depends only on ``spec.seed`` and the stratum's
    identity (target, module, variable), so it is identical for any
    pool, worker count, shard schedule, or resume point.
    """
    # Deferred: repro.orchestration reaches repro.core.detector, which
    # imports repro.injection -- a top-level import here would close
    # that cycle while repro.injection.__init__ is still initializing.
    from repro.orchestration.campaigns import plan_pairs
    from repro.orchestration.tasks import derive_seed

    population = plan_pairs(campaign) if pairs is None else list(pairs)
    strata: dict[str, list] = {}
    for pair in population:
        strata.setdefault(pair[0], []).append(pair)
    config = campaign.config
    for variable, stratum_pairs in strata.items():
        identity = (
            f"sample:{campaign.target.name}:{config.module}"
            f"@{config.injection_location}:{variable}"
        )
        rng = random.Random(derive_seed(spec.seed, identity))
        rng.shuffle(stratum_pairs)
    return strata


def _estimate_stratum(
    variable: str,
    population: int,
    records: list[ExperimentRecord],
    spec: SamplingSpec,
    stopped: str,
    exact_records: list[ExperimentRecord] | None = None,
) -> StratumEstimate:
    n = len(records)
    classes: dict[str, ClassEstimate] = {}
    counts = {name: 0 for name in OUTCOME_CLASSES}
    for record in records:
        counts[outcome_class(record)] += 1
    for name in OUTCOME_CLASSES:
        count = counts[name]
        if n:
            low, high = proportion_interval(count, n, spec.ci, spec.confidence)
            rate = count / n
        else:
            low, high, rate = 0.0, 1.0, 0.0
        classes[name] = ClassEstimate(count, rate, low, high)
    exact_counts: dict[str, int] = {}
    for record in exact_records or ():
        name = outcome_class(record)
        exact_counts[name] = exact_counts.get(name, 0) + 1
    return StratumEstimate(
        stratum=variable,
        population=population,
        sampled=n,
        classes=classes,
        method=spec.ci,
        confidence=spec.confidence,
        target_halfwidth=spec.target_halfwidth,
        stopped=stopped,
        exact_cells=len(exact_records or ()),
        exact_counts=exact_counts,
    )


def _converged(records: list[ExperimentRecord], spec: SamplingSpec) -> bool:
    """The early-stop rule over one stratum's sampled cells so far."""
    n = len(records)
    if n < spec.min_cells:
        return False
    counts = {name: 0 for name in OUTCOME_CLASSES}
    for record in records:
        counts[outcome_class(record)] += 1
    for count in counts.values():
        low, high = proportion_interval(count, n, spec.ci, spec.confidence)
        if (high - low) / 2.0 > spec.target_halfwidth:
            return False
    return True


class StratifiedDraws:
    """The draw policy of a sampled campaign: which pairs each round runs.

    Strata are the injection variables of the plan's executed pairs,
    each drawn in its seeded order (:func:`plan_strata`).  A round
    takes up to ``spec.round_cells`` cells' worth of whole pairs from
    every open stratum; after it, a stratum stops once its intervals
    are narrow enough (:func:`_converged`), its pairs are exhausted,
    or it reached ``spec.max_cells``.  :meth:`Campaign.run
    <repro.injection.campaign.Campaign.run>` executes the rounds and
    assembles their records like any other batch of pairs; the policy
    only picks the pairs and, at the end, estimates (:meth:`report`).
    """

    def __init__(self, campaign, spec: SamplingSpec, pairs) -> None:
        config = campaign.config
        self.campaign = campaign
        self.spec = spec
        self.runs_per_pair = len(config.injection_times) * len(config.test_cases)
        if self.runs_per_pair == 0:
            raise ValueError("campaign has no injection times or test cases")
        with obs.span(
            names.SAMPLE_PLAN, target=campaign.target.name, ci=spec.ci
        ) as plan_span:
            self.strata = plan_strata(campaign, spec, pairs=pairs)
            plan_span.count("strata", len(self.strata))
            plan_span.count("cells", len(pairs) * self.runs_per_pair)
        self.stopped: dict[str, str] = {}
        self.sampled: dict[str, list[ExperimentRecord]] = {
            variable: [] for variable in self.strata
        }
        self.rounds = 0

    def run(self, execute) -> None:
        """Draw rounds until every stratum stops.  ``execute(pairs)``
        runs one round's pairs and returns their records by
        ``(variable, bit)`` (:func:`repro.orchestration.campaigns.records_by_pair`)."""
        spec, n = self.spec, self.runs_per_pair
        pairs_per_round = max(1, math.ceil(spec.round_cells / n))
        taken = {variable: 0 for variable in self.strata}
        while len(self.stopped) < len(self.strata):
            drawn: dict[str, list] = {}
            for variable in sorted(self.strata):
                if variable in self.stopped:
                    continue
                start = taken[variable]
                draw = self.strata[variable][start:start + pairs_per_round]
                if spec.max_cells is not None:
                    room = spec.max_cells - start * n
                    draw = draw[: max(0, math.ceil(room / n))]
                drawn[variable] = draw
            batch = [pair for draw in drawn.values() for pair in draw]
            if not batch:
                # Every open stratum is out of budget or population.
                for variable in drawn:
                    self.stopped[variable] = (
                        "exhausted"
                        if taken[variable] >= len(self.strata[variable])
                        else "capped"
                    )
                return
            self.rounds += 1
            with obs.span(
                names.SAMPLE_ROUND, round=self.rounds, pairs=len(batch)
            ) as round_span:
                records = execute(batch)
                round_span.count(names.COUNTER_SAMPLED_CELLS, len(batch) * n)
            for variable, draw in drawn.items():
                taken[variable] += len(draw)
                sampled = self.sampled[variable]
                for name, _kind, bit in draw:
                    sampled.extend(records[(name, bit)])
                if _converged(sampled, spec):
                    self.stopped[variable] = "converged"
                elif taken[variable] >= len(self.strata[variable]):
                    self.stopped[variable] = "exhausted"
                elif spec.max_cells is not None and len(sampled) >= spec.max_cells:
                    self.stopped[variable] = "capped"

    def report(self, plan, records: list[ExperimentRecord]) -> SamplingReport:
        """Per-stratum estimates over every variable of ``plan`` (a
        :class:`repro.analysis.prune.PrunePlan`), with the assembled
        ``records``' prune-synthesized cells reported beside them as
        exact counts."""
        from repro.analysis.prune import PRUNED_VERDICTS

        spec, n = self.spec, self.runs_per_pair
        with obs.span(
            names.SAMPLE_ESTIMATE, target=self.campaign.target.name
        ) as estimate_span:
            pruned = {
                (point.variable, point.bit)
                for point in plan.points
                if point.verdict in PRUNED_VERDICTS
            }
            exact: dict[str, list[ExperimentRecord]] = {}
            for record in records:
                if (record.flip.variable, record.flip.bit) in pruned:
                    exact.setdefault(record.flip.variable, []).append(record)
            # Every variable of the plan is reported, including fully
            # pruned ones whose stratum has an empty sampling frame
            # (population 0) and only exact synthesized cells.
            strata = [
                _estimate_stratum(
                    variable,
                    len(self.strata.get(variable, ())) * n,
                    self.sampled.get(variable, []),
                    spec,
                    self.stopped.get(variable, "exhausted"),
                    exact.get(variable),
                )
                for variable in sorted({point.variable for point in plan.points})
            ]
            cells_sampled = sum(len(r) for r in self.sampled.values())
            estimate_span.count(names.COUNTER_SAMPLED_CELLS, cells_sampled)
            estimate_span.count(
                names.COUNTER_CONVERGED_STRATA,
                sum(1 for s in strata if s.stopped == "converged"),
            )
        return SamplingReport(
            spec=spec,
            strata=strata,
            cells_total=len(plan.points) * n,
            cells_sampled=cells_sampled,
            rounds=self.rounds,
        )
