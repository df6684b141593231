"""Compiler correctness: lowered evaluators == interpreted algebra."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.detector import Detector
from repro.core.predicate import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    Predicate,
    TruePredicate,
)
from repro.analysis.simplify import SimplificationResult
from repro.runtime import compile as compile_module
from repro.runtime.compile import compile_predicate
from repro.runtime.pack import build_index, pack_states, state_value

NAN = float("nan")

P = Or(
    [
        And([Comparison("v", "<=", 5.0), Comparison("w", "==", 1.0)]),
        Comparison("v", ">", 9.0),
        Comparison("u", "!=", 2.0),
    ]
)

STATES = [
    {"v": 4.0, "w": 1.0, "u": 2.0},
    {"v": 6.0, "w": 1.0, "u": 2.0},
    {"v": 10.0},
    {},
    {"v": NAN, "w": NAN, "u": NAN},
    {"u": 3.0},
    {"v": 5.0, "w": 0.0, "u": 2.0},
]


class TestScalarClosure:
    def test_matches_interpreted(self):
        compiled = compile_predicate(P)
        assert compiled.mode == "compiled"
        for state in STATES:
            assert compiled.evaluate(state) == P.evaluate(state), state

    def test_missing_variable_false(self):
        compiled = compile_predicate(Comparison("x", "!=", 1.0))
        assert compiled.evaluate({}) is False

    def test_nan_false_for_every_operator(self):
        for op in ("<=", ">", "==", "!="):
            compiled = compile_predicate(Comparison("x", op, 1.0))
            assert compiled.evaluate({"x": NAN}) is False, op

    def test_constants(self):
        assert compile_predicate(TruePredicate()).evaluate({}) is True
        assert compile_predicate(FalsePredicate()).evaluate({}) is False

    def test_source_is_recorded(self):
        compiled = compile_predicate(P)
        assert "def _detector" in compiled.source
        assert "def _batch" in compiled.source


class TestBatchEvaluator:
    def test_matches_evaluate_rows(self):
        compiled = compile_predicate(P)
        index = build_index(P.variables())
        x = pack_states(STATES, index)
        assert np.array_equal(
            compiled.evaluate_rows(x, index), P.evaluate_rows(x, index)
        )

    def test_matches_dict_semantics(self):
        compiled = compile_predicate(P)
        index = build_index(P.variables())
        x = pack_states(STATES, index)
        assert compiled.evaluate_rows(x, index).tolist() == [
            P.evaluate(state) for state in STATES
        ]

    def test_unknown_variables_all_false(self):
        compiled = compile_predicate(Comparison("x", "<=", 1.0))
        assert not compiled.evaluate_rows(np.zeros((4, 1)), {}).any()


class TestFallback:
    def test_custom_atom_falls_back(self):
        class Weird(Predicate):
            def evaluate(self, state):
                return state.get("x") == "weird"

            def evaluate_rows(self, x, attribute_index):
                return np.zeros(len(np.atleast_2d(x)), dtype=bool)

            def variables(self):
                return frozenset(("x",))

            def simplify(self):
                return self

            def complexity(self):
                return 1

            def _source(self, state_name):
                return "False"

        compiled = compile_predicate(Weird())
        assert compiled.mode == "interpreted"
        assert "Weird" in compiled.fallback_reason
        assert compiled.evaluate({"x": "weird"}) is True

    def test_fallback_nested_inside_connective(self):
        from repro.baselines.invariants import _OrderingViolation

        predicate = And([Comparison("a", ">", 0.0), _OrderingViolation("a", "b")])
        compiled = compile_predicate(predicate)
        assert compiled.mode == "interpreted"
        assert compiled.evaluate({"a": 3.0, "b": 1.0}) is True
        assert compiled.evaluate({"a": 3.0}) is False


class TestSelfCheckFailure:
    """Each self-check comparison rejects a deliberately broken lowering.

    With the lowering broken, the simplified form fails the check, so
    does the verbatim original, and the detector is served interpreted
    with the failing comparison named.  A broken simplifier is caught
    by the same battery: the original is lowered verbatim instead.
    """

    @staticmethod
    def _break_lowering(monkeypatch, scalar=None, batch=None):
        lower = compile_module._lower

        def broken(predicate):
            good_scalar, good_batch, source = lower(predicate)
            return (
                scalar(good_scalar) if scalar else good_scalar,
                batch(good_batch) if batch else good_batch,
                source,
            )

        monkeypatch.setattr(compile_module, "_lower", broken)

    @staticmethod
    def _assert_interpreted(compiled, reason):
        assert compiled.mode == "interpreted"
        assert compiled.fallback_reason == f"self-check failed: {reason}"
        assert compiled.source is None
        assert compiled.lowered is P
        for state in STATES:
            assert compiled.evaluate(state) == P.evaluate(state), state

    def test_scalar_that_flips_one_battery_state(self, monkeypatch):
        # The battery's first state is the empty one.
        self._break_lowering(
            monkeypatch,
            scalar=lambda good: lambda state: (not good(state)) if not state else good(state),
        )
        self._assert_interpreted(compile_predicate(P), "scalar lowering disagrees on {}")

    def test_batch_that_flips_one_row(self, monkeypatch):
        def flip_row(good):
            def batch(x, index):
                out = np.array(good(x, index), dtype=bool)
                out[2] = not out[2]
                return out

            return batch

        self._break_lowering(monkeypatch, batch=flip_row)
        self._assert_interpreted(
            compile_predicate(P), "batch lowering disagrees with evaluate_rows"
        )

    def test_batch_wrong_only_with_an_empty_index(self, monkeypatch):
        self._break_lowering(
            monkeypatch,
            batch=lambda good: lambda x, index: good(x, index) if index else ~good(x, index),
        )
        self._assert_interpreted(compile_predicate(P), "unknown-variable semantics disagree")

    def test_packing_that_loses_values(self, monkeypatch):
        # Rows oracle and batch agree over the broken array; only the
        # dict oracle sees that the values are gone.
        monkeypatch.setattr(
            compile_module,
            "pack_states",
            lambda states, index: np.full((len(states), len(index)), NAN),
        )
        self._assert_interpreted(
            compile_predicate(P), "row semantics disagree with dict semantics"
        )

    def test_simplifier_returning_a_non_equivalent_predicate(self, monkeypatch):
        wrong = Comparison("v", ">", 100.0)
        monkeypatch.setattr(
            compile_module,
            "simplify_predicate",
            lambda predicate: SimplificationResult(predicate, wrong, []),
        )
        compiled = compile_predicate(P)
        assert compiled.mode == "compiled"
        assert compiled.fallback_reason is None
        assert compiled.lowered is P
        assert compiled.source == compile_predicate(P, simplify=False).source
        for state in STATES:
            assert compiled.evaluate(state) == P.evaluate(state), state


class TestDetectorHook:
    def test_check_uses_compiled_path(self):
        detector = Detector(P, name="hooked")
        compiled = detector.compile()
        assert compiled is detector.compiled
        assert compiled.is_compiled
        for state in STATES:
            fresh = Detector(P)
            assert detector.check(state) == fresh.check(state)
        assert detector.evaluations == len(STATES)

    def test_counters_still_track(self):
        detector = Detector(Comparison("v", ">", 1.0), name="count")
        detector.compile()
        detector.check({"v": 2.0})
        detector.check({"v": 0.0})
        assert (detector.evaluations, detector.detections) == (2, 1)


# ----------------------------------------------------------------------
# Property: compiled == interpreted on random predicates x random states
# ----------------------------------------------------------------------
values = st.one_of(
    st.floats(min_value=-10, max_value=10),
    st.just(NAN),
    st.booleans(),
)
variables = st.sampled_from(["a", "b", "c", "d"])
comparisons = st.builds(
    Comparison,
    variable=variables,
    op=st.sampled_from(["<=", ">", "==", "!="]),
    value=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
predicates = st.recursive(
    st.one_of(
        comparisons,
        st.just(TruePredicate()),
        st.just(FalsePredicate()),
    ),
    lambda children: st.one_of(
        st.builds(lambda cs: And(cs), st.lists(children, max_size=4)),
        st.builds(lambda cs: Or(cs), st.lists(children, max_size=4)),
    ),
    max_leaves=12,
)
states = st.dictionaries(variables, values, max_size=4)


@settings(max_examples=150, deadline=None)
@given(predicate=predicates, state=states)
def test_compiled_equals_interpreted_property(predicate, state):
    compiled = compile_predicate(predicate)
    assert compiled.mode == "compiled"
    # Scalar closure vs AST walk.
    assert compiled.evaluate(state) == predicate.evaluate(state)
    # Batch evaluator vs AST walk over the packed single-row array.
    index = build_index(predicate.variables() | set(state))
    x = pack_states([state], index)
    want = bool(predicate.evaluate_rows(x, index)[0])
    assert bool(compiled.evaluate_rows(x, index)[0]) == want
    # Packed-row semantics agree with dict semantics.
    assert want == predicate.evaluate(state)


@settings(max_examples=100, deadline=None)
@given(state=states, variable=variables)
def test_state_value_matches_scalar_semantics(state, variable):
    """pack/state_value NaN convention == Comparison.evaluate."""
    value = state_value(state, variable)
    comparison = Comparison(variable, "<=", 0.0)
    if math.isnan(value):
        assert comparison.evaluate(state) is False
    else:
        assert comparison.evaluate(state) == (value <= 0.0)


def test_rendered_source_preserves_missing_nan_semantics():
    """to_source() output is eval-safe and matches evaluate()."""
    source = P.to_source("state")
    for state in STATES:
        assert eval(source, {}, {"state": state}) == P.evaluate(state), state


class TestSimplifyIntegration:
    def test_redundant_atoms_lowered_away(self):
        fat = And([Comparison("x", "<=", 5.0), Comparison("x", "<=", 9.0)])
        compiled = compile_predicate(fat)
        assert compiled.mode == "compiled"
        assert compiled.predicate == fat  # original kept for provenance
        assert compiled.lowered == Comparison("x", "<=", 5.0)
        for state in ({}, {"x": 4.0}, {"x": 7.0}, {"x": NAN}):
            assert compiled.evaluate(state) == fat.evaluate(state), state

    def test_simplify_false_lowers_verbatim(self):
        fat = And([Comparison("x", "<=", 5.0), Comparison("x", "<=", 9.0)])
        compiled = compile_predicate(fat, simplify=False)
        assert compiled.lowered == fat

    def test_lowered_defaults_to_predicate(self):
        compiled = compile_predicate(Comparison("x", ">", 0.0))
        assert compiled.lowered is compiled.predicate

    def test_lowered_variables_drive_batch_columns(self):
        dead = And([Comparison("x", "<=", 1.0), Comparison("x", ">", 5.0)])
        live = Comparison("y", ">", 0.0)
        compiled = compile_predicate(Or([dead, live]))
        assert compiled.lowered.variables() == frozenset(("y",))
        index = build_index(compiled.lowered.variables())
        x = pack_states([{"y": 1.0}, {"y": -1.0}], index)
        assert list(compiled.evaluate_rows(x, index)) == [True, False]

    def test_unsupported_simplified_form_falls_back_to_original(self):
        class Opaque(Predicate):
            def evaluate(self, state):
                return bool(state.get("q", 0) > 0)

            def evaluate_rows(self, x, attribute_index):
                raise NotImplementedError

            def variables(self):
                return frozenset(("q",))

            def simplify(self):
                return self

            def complexity(self):
                return 1

            def _source(self, state_name):
                return "False"

        compiled = compile_predicate(And([Opaque(), Comparison("x", ">", 0.0)]))
        assert compiled.mode == "interpreted"
