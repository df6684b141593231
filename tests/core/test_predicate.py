"""Unit and property tests for the predicate algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predicate import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    Predicate,
    PredicateError,
    TruePredicate,
)


V_LE_5 = Comparison("v", "<=", 5.0)
V_GT_5 = Comparison("v", ">", 5.0)
W_EQ_1 = Comparison("w", "==", 1.0, label="on")


class TestComparison:
    def test_evaluate_dict(self):
        assert V_LE_5.evaluate({"v": 4.0})
        assert not V_LE_5.evaluate({"v": 6.0})
        assert V_GT_5.evaluate({"v": 6.0})

    def test_boolean_state_values(self):
        on = Comparison("armed", "==", 1.0, label="true")
        assert on.evaluate({"armed": True})
        assert not on.evaluate({"armed": False})

    def test_missing_variable_false(self):
        assert not V_LE_5.evaluate({})

    def test_nan_value_false(self):
        assert not V_LE_5.evaluate({"v": float("nan")})
        assert not V_GT_5.evaluate({"v": float("nan")})

    def test_non_numeric_state_false(self):
        assert not V_LE_5.evaluate({"v": "garbage"})

    def test_ne_operator(self):
        ne = Comparison("v", "!=", 5.0)
        assert ne.evaluate({"v": 4.0})
        assert not ne.evaluate({"v": 5.0})

    def test_evaluate_rows(self):
        x = np.array([[4.0], [6.0], [np.nan]])
        mask = V_LE_5.evaluate_rows(x, {"v": 0})
        assert mask.tolist() == [True, False, False]

    def test_rows_unknown_variable_all_false(self):
        x = np.array([[4.0]])
        assert not V_LE_5.evaluate_rows(x, {"other": 0}).any()

    def test_validation(self):
        with pytest.raises(PredicateError):
            Comparison("v", "<", 5.0)
        with pytest.raises(PredicateError):
            Comparison("v", "<=", float("inf"))
        for huge in (10**400, -(10**400)):  # ints beyond the float range
            with pytest.raises(PredicateError):
                Comparison("v", "<=", huge)

    def test_str_uses_label(self):
        assert "on" in str(W_EQ_1)

    def test_complexity(self):
        assert V_LE_5.complexity() == 1


class TestConstants:
    def test_true(self):
        assert TruePredicate().evaluate({})
        assert TruePredicate().evaluate_rows(np.zeros((3, 1)), {}).all()
        assert TruePredicate().complexity() == 0

    def test_false(self):
        assert not FalsePredicate().evaluate({})
        assert not FalsePredicate().evaluate_rows(np.zeros((3, 1)), {}).any()


class TestConnectives:
    def test_and_semantics(self):
        p = And([V_GT_5, Comparison("w", "<=", 2.0)])
        assert p.evaluate({"v": 6.0, "w": 1.0})
        assert not p.evaluate({"v": 6.0, "w": 3.0})

    def test_or_semantics(self):
        p = Or([V_GT_5, Comparison("w", "<=", 2.0)])
        assert p.evaluate({"v": 1.0, "w": 1.0})
        assert not p.evaluate({"v": 1.0, "w": 3.0})

    def test_rows_match_scalar(self):
        p = Or([And([V_LE_5, W_EQ_1]), V_GT_5])
        x = np.array([[4.0, 1.0], [4.0, 0.0], [6.0, 0.0]])
        rows = p.evaluate_rows(x, {"v": 0, "w": 1})
        scalar = [
            p.evaluate({"v": row[0], "w": row[1]}) for row in x
        ]
        assert rows.tolist() == scalar

    def test_variables(self):
        p = And([V_LE_5, W_EQ_1])
        assert p.variables() == {"v", "w"}

    def test_str_parenthesises_nested(self):
        p = Or([And([V_LE_5, W_EQ_1]), V_GT_5])
        assert "(" in str(p)

    def test_to_source_evaluates(self):
        p = Or([And([V_LE_5, W_EQ_1]), V_GT_5])
        source = p.to_source("state")
        for state in ({"v": 4.0, "w": 1.0}, {"v": 9.0, "w": 0.0},
                      {"v": 4.0, "w": 0.0}):
            assert eval(source, {}, {"state": state}) == p.evaluate(state)

    def test_to_source_missing_variable_is_false(self):
        # The rendered assertion must not raise (or flag) when the
        # target cannot provide a variable -- same as evaluate().
        p = Or([And([V_LE_5, W_EQ_1]), V_GT_5])
        source = p.to_source("state")
        for state in ({}, {"v": 4.0}, {"w": 1.0}):
            assert eval(source, {}, {"state": state}) == p.evaluate(state)

    def test_to_source_nan_is_false_for_every_operator(self):
        nan_state = {"v": float("nan")}
        for op in ("<=", ">", "==", "!="):
            source = Comparison("v", op, 5.0).to_source("state")
            assert eval(source, {}, {"state": nan_state}) is False, op
            assert eval(source, {}, {"state": {}}) is False, op


class TestSimplify:
    def test_empty_and_is_true(self):
        assert isinstance(And([]).simplify(), TruePredicate)

    def test_empty_or_is_false(self):
        assert isinstance(Or([]).simplify(), FalsePredicate)

    def test_false_annihilates_and(self):
        assert isinstance(
            And([V_LE_5, FalsePredicate()]).simplify(), FalsePredicate
        )

    def test_true_annihilates_or(self):
        assert isinstance(
            Or([V_LE_5, TruePredicate()]).simplify(), TruePredicate
        )

    def test_identity_elements_dropped(self):
        assert And([V_LE_5, TruePredicate()]).simplify() == V_LE_5
        assert Or([V_LE_5, FalsePredicate()]).simplify() == V_LE_5

    def test_flattening(self):
        nested = And([And([V_LE_5]), And([W_EQ_1])]).simplify()
        assert isinstance(nested, And)
        assert len(nested.children) == 2

    def test_duplicate_removal(self):
        assert And([V_LE_5, V_LE_5]).simplify() == V_LE_5

    def test_conjunction_bound_merging(self):
        p = And([Comparison("v", "<=", 5.0), Comparison("v", "<=", 7.0)])
        assert p.simplify() == Comparison("v", "<=", 5.0)
        p = And([Comparison("v", ">", 2.0), Comparison("v", ">", 4.0)])
        assert p.simplify() == Comparison("v", ">", 4.0)

    def test_disjunction_bound_merging(self):
        p = Or([Comparison("v", "<=", 5.0), Comparison("v", "<=", 7.0)])
        assert p.simplify() == Comparison("v", "<=", 7.0)

    def test_single_child_unwrapped(self):
        assert Or([And([V_LE_5])]).simplify() == V_LE_5


@st.composite
def predicates(draw, depth=0) -> Predicate:
    if depth >= 3 or draw(st.booleans()):
        variable = draw(st.sampled_from(["a", "b", "c"]))
        op = draw(st.sampled_from(["<=", ">"]))
        value = draw(st.floats(-10, 10, allow_nan=False))
        return Comparison(variable, op, value)
    connective = draw(st.sampled_from([And, Or]))
    children = draw(
        st.lists(predicates(depth=depth + 1), min_size=1, max_size=3)
    )
    return connective(children)


@given(predicate=predicates(), a=st.floats(-12, 12), b=st.floats(-12, 12),
       c=st.floats(-12, 12))
@settings(deadline=None, max_examples=150)
def test_simplify_preserves_semantics(predicate, a, b, c):
    """Property: simplification never changes the predicate's value."""
    state = {"a": a, "b": b, "c": c}
    assert predicate.simplify().evaluate(state) == predicate.evaluate(state)


@given(predicate=predicates())
@settings(deadline=None, max_examples=100)
def test_simplify_never_grows(predicate):
    assert predicate.simplify().complexity() <= predicate.complexity()


@given(predicate=predicates(), a=st.floats(-12, 12), b=st.floats(-12, 12),
       c=st.floats(-12, 12))
@settings(deadline=None, max_examples=100)
def test_rows_and_dict_evaluation_agree(predicate, a, b, c):
    state = {"a": a, "b": b, "c": c}
    x = np.array([[a, b, c]])
    index = {"a": 0, "b": 1, "c": 2}
    assert bool(predicate.evaluate_rows(x, index)[0]) == predicate.evaluate(state)
