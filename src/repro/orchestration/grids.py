"""Parallel evaluation of refinement grids (Step 4 trials).

:func:`repro.core.refine.refine` evaluates every preprocessing plan of
a :class:`~repro.core.refine.RefinementGrid` with stratified
cross-validation.  The trials are independent by construction -- each
plan's RNG is ``np.random.default_rng((seed, index))``, derived from
the trial's identity rather than any shared stream -- so the grid
parallelises without touching the statistics: the worker evaluates a
trial with exactly the code and exactly the RNG the serial loop would
have used, and trials are collated in plan order, so the winning plan
(``max`` over trials, first-best-wins) is bit-identical serial or
parallel.

With a :class:`~repro.injection.store.CampaignStore`, each trial is
stored under a key over the dataset content, the plan, the CV
protocol, the learner and complexity callables, and the mining code
(:func:`code_fingerprint`), but *not* the grid as a whole: adding
plans to a grid re-executes only the new trials, a store shared with
campaign generation reuses every campaign shard when only the grid
changed (FastFlip-style incremental reuse), and an edit to the mining
code re-executes every trial.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import pkgutil
from collections.abc import Callable

import numpy as np

from repro import observability as obs
from repro.core.refine import (
    RefinementGrid,
    RefinementResult,
    RefinementTrial,
)
from repro.mining.crossval import (
    CrossValidationResult,
    FoldResult,
    cross_validate,
)
from repro.mining.dataset import Dataset
from repro.mining.metrics import ConfusionMatrix
from repro.orchestration.pool import SerialPool, WorkerPool
from repro.orchestration.tasks import Task, TaskGraph, fingerprint_of

__all__ = ["code_fingerprint", "dataset_fingerprint", "run_refinement"]


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content fingerprint of a dataset (schema + exact cell bytes)."""
    digest = hashlib.sha256()
    for attribute in (*dataset.attributes, dataset.class_attribute):
        digest.update(
            f"{attribute.name}:{attribute.kind}:{','.join(attribute.values)};".encode()
        )
    digest.update(np.ascontiguousarray(dataset.x, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(dataset.y, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(dataset.weights, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


def code_modules() -> list[str]:
    """The modules whose code decides a trial's result besides the
    callables it is given: every module of :mod:`repro.mining` and
    :mod:`repro.core.preprocess` (the preprocessing plans)."""
    import repro.mining

    return [
        "repro.mining",
        *sorted(
            info.name
            for info in pkgutil.walk_packages(
                repro.mining.__path__, "repro.mining."
            )
        ),
        "repro.core.preprocess",
    ]


def code_fingerprint(modules: list[str]) -> str | None:
    """Fingerprint of the AST-normalized sources of ``modules``, or
    ``None`` when one has no retrievable source."""
    from repro.targets.base import normalized_source

    sources = {
        name: normalized_source(importlib.import_module(name))
        for name in modules
    }
    if any(source is None for source in sources.values()):
        return None
    return fingerprint_of(sources)


def _callable_tag(fn: Callable | None, modules: list[str]) -> str | None:
    """Stable identity of a callable for a trial's store key.

    Factories expose a ``fingerprint`` attribute (e.g.
    :class:`repro.core.preprocess.LearnerFactory`); a callable defined
    in one of ``modules`` is named by its qualified name, the code
    fingerprint covering its source.  Anything else has no stable
    identity: ``None``, and its trials are not stored.
    """
    tag = getattr(fn, "fingerprint", None)
    if tag is not None:
        return str(tag)
    if getattr(fn, "__module__", None) in modules:
        return f"{fn.__module__}.{fn.__qualname__}"
    return None


def _trial_keys(
    dataset: Dataset,
    make_classifier: Callable,
    plans: list,
    folds: int,
    seed: int,
    complexity: Callable | None,
    positive: int,
) -> list[dict | None]:
    """Each trial's store key, or ``None`` for every trial when the
    learner, the complexity callable or the mining code cannot be
    fingerprinted."""
    modules = code_modules()
    learner = _callable_tag(make_classifier, modules)
    complexity_tag = _callable_tag(complexity, modules)
    if learner is None or (complexity is not None and complexity_tag is None):
        return [None] * len(plans)
    code = code_fingerprint(modules)
    if code is None:
        return [None] * len(plans)
    base = {
        "schema": 1,
        "dataset": dataset_fingerprint(dataset),
        "folds": folds,
        "seed": seed,
        "positive": positive,
        "learner": learner,
        "complexity": complexity_tag,
        "code": code,
    }
    return [
        {**base, "index": index, "plan": dataclasses.asdict(plan)}
        for index, plan in enumerate(plans)
    ]


def _encode_evaluation(evaluation: CrossValidationResult) -> dict:
    # json round-trips finite float64 exactly (repr shortest-round-trip),
    # and confusion cells / complexities are always finite.
    return {
        "folds": [
            {
                "fold": fold.fold,
                "matrix": fold.confusion.matrix.tolist(),
                "labels": list(fold.confusion.labels),
                "positive": fold.confusion.positive,
                "complexity": fold.complexity,
            }
            for fold in evaluation.folds
        ]
    }


def _decode_evaluation(payload: dict) -> CrossValidationResult:
    return CrossValidationResult(
        [
            FoldResult(
                fold=int(entry["fold"]),
                confusion=ConfusionMatrix(
                    np.array(entry["matrix"], dtype=np.float64),
                    tuple(entry["labels"]),
                    int(entry["positive"]),
                ),
                complexity=float(entry["complexity"]),
            )
            for entry in payload["folds"]
        ]
    )


def _evaluate_plan(
    dataset: Dataset,
    make_classifier: Callable,
    plan,
    index: int,
    folds: int,
    seed: int,
    complexity: Callable | None,
    positive: int,
) -> CrossValidationResult:
    """Worker body: one trial, with the serial loop's exact RNG."""
    with obs.span("refine.trial", index=index, plan=plan.describe()):
        rng = np.random.default_rng((seed, index))
        return cross_validate(
            dataset,
            make_classifier,
            k=folds,
            rng=rng,
            preprocess=plan.apply,
            complexity=complexity,
            positive=positive,
        )


def run_refinement(
    dataset: Dataset,
    make_classifier: Callable,
    grid: RefinementGrid,
    folds: int = 10,
    seed: int = 0,
    complexity: Callable | None = None,
    positive: int = 1,
    pool: WorkerPool | None = None,
    store=None,
) -> RefinementResult:
    """Evaluate a refinement grid through a worker pool.

    Bit-identical to :func:`repro.core.refine.refine` for the same
    arguments, any worker count.  ``store`` (a
    :class:`repro.injection.store.CampaignStore`) loads the trials it
    holds and stores each fresh one; a learner or complexity callable
    without a ``fingerprint`` that is defined outside the mining code
    (:func:`code_modules`) has no stable identity, so its trials always
    execute.  A trial that exhausts its retries raises -- unlike
    campaign shards there is no meaningful degraded record for a trial,
    and silently dropping one would bias the winner selection.
    """
    if pool is None:
        pool = SerialPool()
    plans = list(grid.plans())
    if not plans:
        raise ValueError("refinement grid is empty")
    keys: list[dict | None] = [None] * len(plans)
    if store is not None:
        keys = _trial_keys(
            dataset, make_classifier, plans, folds, seed, complexity, positive
        )
    tasks = [
        Task(
            task_id=f"trial:{index:05d}",
            fingerprint=None if key is None else fingerprint_of(key),
            fn=_evaluate_plan,
            args=(
                dataset,
                make_classifier,
                plan,
                index,
                folds,
                seed,
                complexity,
                positive,
            ),
            key=key,
        )
        for index, (plan, key) in enumerate(zip(plans, keys))
    ]
    graph = TaskGraph(tasks, encode=_encode_evaluation, decode=_decode_evaluation)
    outcomes = graph.run(pool, store=store)
    trials: list[RefinementTrial] = []
    for task, plan in zip(tasks, plans):
        outcome = outcomes[task.task_id]
        if not outcome.ok:
            raise RuntimeError(
                f"refinement trial {task.task_id} quarantined: {outcome.error}"
            )
        trials.append(RefinementTrial(plan, outcome.result))
    best = max(trials, key=lambda t: t.key)
    return RefinementResult(trials, best)
