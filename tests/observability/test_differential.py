"""Differential suite: tracing changes nothing; engines agree.

Three contracts, each phrased as an equality between two independent
computation paths:

* the streaming engine's micro-batched verdicts equal a one-shot
  compiled batch evaluation of the same predicate over the same
  states, for every batch size (hypothesis-driven);
* the presorted C4.5 engine and the seed engine kept in
  ``tests/mining/_c45_reference.py`` produce bit-identical refinement
  rankings *while a tracer is actively recording*;
* a fully traced ``Methodology.run`` serializes identically to an
  untraced one -- the tracer reads clocks, never results.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.core.detector import Detector
from repro.core.methodology import Methodology, MethodologyConfig
from repro.core.predicate import And, Comparison, Or
from repro.core.refine import RefinementGrid, refine
from repro.core.preprocess import model_complexity
from repro.mining.tree.induction import C45DecisionTree
from repro.runtime.compile import compile_predicate
from repro.runtime.engine import StreamingEngine
from repro.runtime.pack import build_index, pack_states

from tests.conftest import make_imbalanced
from tests.mining._c45_reference import ReferenceC45DecisionTree

VARIABLES = ("u", "v", "w")

comparisons = st.builds(
    Comparison,
    st.sampled_from(VARIABLES),
    st.sampled_from(("<=", ">", "==", "!=")),
    st.floats(-5.0, 5.0, allow_nan=False),
)
predicates = st.one_of(
    comparisons,
    st.builds(And, st.lists(comparisons, min_size=1, max_size=3)),
    st.builds(
        Or,
        st.lists(
            st.one_of(
                comparisons,
                st.builds(And, st.lists(comparisons, min_size=1, max_size=2)),
            ),
            min_size=1,
            max_size=3,
        ),
    ),
)
values = st.one_of(
    st.floats(-6.0, 6.0),
    st.just(float("nan")),
)
states = st.lists(
    st.dictionaries(st.sampled_from(VARIABLES), values, max_size=3),
    min_size=1,
    max_size=25,
)


class TestEngineMatchesOneShotBatch:
    @given(predicate=predicates, states=states, batch_size=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_micro_batched_equals_one_shot(self, predicate, states, batch_size):
        engine = StreamingEngine(batch_size=batch_size)
        name = engine.add(Detector(predicate, name="d"))
        streamed = [
            batch.flags[name]
            for batch in engine.evaluate_stream(states, batch_size)
        ]
        micro = np.concatenate(streamed)

        compiled = compile_predicate(predicate)
        index = build_index(predicate.variables())
        one_shot = np.asarray(
            compiled.evaluate_rows(pack_states(states, index), index),
            dtype=bool,
        )
        assert np.array_equal(micro, one_shot)

    @given(predicate=predicates, states=states, batch_size=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_submit_flush_path_agrees(self, predicate, states, batch_size):
        engine = StreamingEngine(batch_size=batch_size)
        name = engine.add(Detector(predicate, name="d"))
        chunks = []
        for state in states:
            result = engine.submit(state)
            if result is not None:
                chunks.append(result.flags[name])
        tail = engine.flush()
        if tail is not None:
            chunks.append(tail.flags[name])
        compiled = compile_predicate(predicate)
        index = build_index(predicate.variables())
        expected = np.asarray(
            compiled.evaluate_rows(pack_states(states, index), index),
            dtype=bool,
        )
        assert np.array_equal(np.concatenate(chunks), expected)


def _small_grid() -> RefinementGrid:
    return RefinementGrid(
        undersample_levels=(25.0, 60.0),
        oversample_levels=(200.0,),
        neighbour_counts=(3,),
    )


def _ranking(result):
    return [
        (trial.plan.describe(), trial.key) for trial in result.ranked()
    ]


def _fit_spans(tracer) -> int:
    """Trees fitted: a shared fit's span counts its ``trees``."""
    return sum(
        record.counters.get("trees", 1)
        for record in tracer.spans
        if record.name == "c45.fit"
    )


class TestEnginesAgreeUnderTracing:
    def test_presort_and_naive_rankings_identical_while_traced(self):
        dataset = make_imbalanced(n=150)
        grid = _small_grid()
        with obs.tracing() as tracer:
            presort = refine(
                dataset,
                lambda: C45DecisionTree(),
                grid,
                folds=3,
                seed=11,
                complexity=model_complexity,
            )
            presort_fits = _fit_spans(tracer)
            naive = refine(
                dataset,
                lambda: ReferenceC45DecisionTree(),
                grid,
                folds=3,
                seed=11,
                complexity=model_complexity,
            )
            naive_fits = _fit_spans(tracer) - presort_fits
        assert _ranking(presort) == _ranking(naive)
        assert presort.best.plan == naive.best.plan
        # The tracer really was recording both sweeps, fit for fit.
        assert presort_fits > 0
        assert naive_fits == presort_fits


def _outcome_signature(outcome):
    """Every result-bearing field of a MethodologyOutcome, serialized."""
    return {
        "baseline": outcome.baseline.summary(),
        "refined": outcome.refined.summary(),
        "predicate": outcome.refined.predicate.to_source("state"),
        "plan": dataclasses.asdict(outcome.refined.plan),
        "ranking": [
            (t.plan.describe(), t.key) for t in outcome.refinement.ranked()
        ],
    }


class TestTracedEqualsUntraced:
    def test_methodology_run_bit_identical(self, tmp_path):
        dataset = make_imbalanced(n=150)
        grid = _small_grid()
        config = MethodologyConfig(folds=3, seed=5)

        untraced = Methodology(config).run(dataset, grid)
        with obs.tracing_to(tmp_path / "trace.jsonl"):
            traced = Methodology(config).run(dataset, grid)

        assert _outcome_signature(untraced) == _outcome_signature(traced)
        # And the trace itself is non-trivial: phases + trials landed.
        spans = obs.load_trace(tmp_path / "trace.jsonl")
        names = {record.name for record in spans}
        assert {"methodology.run", "phase.baseline", "phase.refine",
                "refine.trial", "crossval.fold", "c45.fit"} <= names
