"""Differential tests of the interpreter's and interval domain's fast paths.

``tests/core/_predicate_reference.py`` keeps the interpreter and
``Constraint.intersect`` as they read before the fast paths.  The
current code must answer exactly as they do:

* ``Predicate.evaluate`` over drawn predicates and states whose values
  are floats, ints (±2**63, 10**400), bools, ``None``, NumPy scalars,
  numeric and non-numeric strings, NaN, ±inf, or absent;
* ``read_number`` / ``state_value`` / the compiled scalar closure,
  which read values by the same rule;
* ``Constraint.intersect`` over empty, point, interval and excluded
  constraints, the shared full constraint on either side included,
  and the simplifier as a whole with the old intersection patched in.
"""

import math
import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.intervals import Constraint, atom_constraint
from repro.analysis.simplify import simplify_predicate
from repro.core.predicate import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    TruePredicate,
    read_number,
)
from repro.runtime.compile import compile_predicate
from repro.runtime.pack import state_value

from tests.core import _predicate_reference as reference

VARIABLES = ("a", "b", "c")
THRESHOLDS = (-1.0, 0.0, 1.0, 2.5)

raw_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, *THRESHOLDS]),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.sampled_from([2**63, -(2**63), 2**63 - 1, 10**400, -(10**400)]),
    st.booleans(),
    st.none(),
    st.sampled_from(["1.5", "-1", " 2.5 ", "nan", "inf", "-1e400", "abc", ""]),
    st.builds(np.float64, st.floats(allow_nan=True)),
    st.builds(np.float32, st.floats(width=32, allow_nan=True)),
    st.builds(np.int64, st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
)
# Absent keys come from the dictionaries' optional entries.
states = st.dictionaries(st.sampled_from(VARIABLES), raw_values, max_size=3)

atoms = st.builds(
    Comparison,
    st.sampled_from(VARIABLES),
    st.sampled_from(["<=", ">", "==", "!="]),
    st.sampled_from(THRESHOLDS),
)
predicates = st.recursive(
    st.one_of(atoms, st.just(TruePredicate()), st.just(FalsePredicate())),
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(And),
        st.lists(children, max_size=4).map(Or),
    ),
    max_leaves=12,
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=400, deadline=None)
@given(predicates, states)
def test_evaluate_equals_the_old_interpreter(predicate, state):
    got = predicate.evaluate(state)
    assert type(got) is bool
    assert got == reference.evaluate(predicate, state)


@settings(max_examples=300, deadline=None)
@given(predicates, st.lists(states, min_size=1, max_size=6))
def test_compiled_scalar_equals_the_old_interpreter(predicate, batch):
    compiled = compile_predicate(predicate)
    for state in batch:
        assert compiled.evaluate(state) == reference.evaluate(predicate, state)


@settings(max_examples=400, deadline=None)
@given(raw_values)
def test_one_reading_rule(raw):
    # The shared helper, the packing twin and the old reading agree to
    # the bit, NaN payloads included.
    want = _bits(reference.read(raw))
    assert type(read_number(raw)) is float
    assert _bits(read_number(raw)) == want
    assert _bits(state_value({"v": raw}, "v")) == want
    assert math.isnan(state_value({}, "v"))


def test_nan_and_absence_fail_every_operator():
    for op in ("<=", ">", "==", "!="):
        atom = Comparison("v", op, 1.0)
        for state in ({}, {"v": math.nan}, {"v": None}, {"v": "nan"}, {"v": "x"}):
            assert atom.evaluate(state) is False, (op, state)
            assert reference.evaluate(atom, state) is False


def test_and_needs_every_child_or_needs_one():
    yes, no = Comparison("v", ">", 0.0), Comparison("v", "<=", 0.0)
    state = {"v": 1.0}
    assert And([yes, no]).evaluate(state) is False
    assert And([yes, yes]).evaluate(state) is True
    assert Or([no, yes]).evaluate(state) is True
    assert Or([no, no]).evaluate(state) is False
    assert And([]).evaluate(state) is True
    assert Or([]).evaluate(state) is False


# ----------------------------------------------------------------------
# Interval intersection
# ----------------------------------------------------------------------
POINTS = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


@st.composite
def intervals(draw):
    lo, hi = sorted(draw(st.lists(st.sampled_from(POINTS), min_size=2, max_size=2, unique=True)))
    lo = -math.inf if draw(st.booleans()) else lo
    hi = math.inf if draw(st.booleans()) else hi
    inside = [p for p in POINTS if (lo == -math.inf or p > lo) and p <= hi]
    excluded = frozenset()
    if inside:
        excluded = frozenset(draw(st.lists(st.sampled_from(inside), max_size=3)))
    return Constraint(lo=lo, hi=hi, excluded=excluded)


constraints = st.one_of(
    st.just(Constraint.full()),
    st.just(Constraint()),
    st.just(Constraint.none()),
    st.sampled_from(POINTS).map(Constraint.point),
    st.builds(
        lambda points: Constraint(excluded=frozenset(points)),
        st.lists(st.sampled_from(POINTS), min_size=1, max_size=3),
    ),
    intervals(),
)


@settings(max_examples=600, deadline=None)
@given(constraints, constraints)
def test_intersect_equals_the_old_intersection(a, b):
    assert a.intersect(b) == reference.intersect(a, b)
    assert b.intersect(a) == reference.intersect(b, a)


@given(constraints)
def test_full_is_the_identity(c):
    full = Constraint.full()
    assert full == reference.full()
    assert c.intersect(full) == reference.intersect(c, reference.full()) == c
    assert full.intersect(c) == reference.intersect(reference.full(), c) == c


def test_full_operand_returns_the_other_constraint():
    for atom in (
        Comparison("v", "<=", 1.0),
        Comparison("v", ">", 1.0),
        Comparison("v", "==", 1.0),
        Comparison("v", "!=", 1.0),
    ):
        c = atom_constraint(atom)
        assert c.intersect(Constraint.full()) == c
        assert Constraint.full().intersect(c) == c
    assert Constraint.none().intersect(Constraint.full()).empty
    assert Constraint.full().intersect(Constraint.full()).is_full


@settings(max_examples=200, deadline=None)
@given(predicates)
def test_simplifier_unchanged_under_the_old_intersection(predicate):
    result = simplify_predicate(predicate)
    with mock.patch.object(Constraint, "intersect", reference.intersect), mock.patch.object(
        Constraint, "full", staticmethod(reference.full)
    ):
        old = simplify_predicate(predicate)
    assert result.simplified == old.simplified
    assert str(result.simplified) == str(old.simplified)
    assert result.verdicts == old.verdicts
