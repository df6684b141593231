"""Differential tests of the batch serving path.

* ``pack_states`` against the per-cell loop it replaced
  (``_pack_reference``): the same bytes, NaN payloads included, over
  multi-row batches mixing every value type a state may carry.
* The generated batch evaluator against the interpreted
  ``Predicate.evaluate_rows``, over predicates that repeat atoms and
  attribute indexes that lack some variables or all of them.
* Ints beyond the float range: every evaluation path reads them as
  ±inf by their sign, and none of them raises.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detector import Detector
from repro.core.predicate import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    TruePredicate,
)
from repro.runtime.compile import compile_predicate
from repro.runtime.engine import StreamingEngine
from repro.runtime.pack import build_index, pack_states, state_value

from tests.runtime._pack_reference import pack_states_reference

VARIABLES = ("a", "b", "c", "d", "e")


def _nan_with_payload(bits: int, negative: bool) -> float:
    sign = 0x8000000000000000 if negative else 0
    return struct.unpack("<d", struct.pack("<Q", sign | 0x7FF0000000000000 | bits))[0]


nans = st.builds(
    _nan_with_payload,
    st.integers(min_value=1, max_value=(1 << 52) - 1),
    st.booleans(),
)
cell_values = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64),
    st.sampled_from([2**63, -(2**63), 2**63 - 1, 10**400, -(10**400), 2**1024]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
    nans,
    st.none(),
    st.booleans(),
    st.sampled_from(["1.5", "-2", " 7 ", "nan", "1e400", "abc", ""]),
    st.builds(np.float64, st.floats(allow_nan=True)),
    st.builds(np.float32, st.floats(width=32, allow_nan=True)),
    st.builds(np.int64, st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
)
# Absent keys come from the dictionaries' optional entries.
batch_states = st.lists(
    st.dictionaries(st.sampled_from(VARIABLES + ("z",)), cell_values, max_size=6),
    min_size=1,
    max_size=12,
)
# Mostly all-native batches, so the NumPy conversion of a column is
# exercised as often as the per-cell fallback.
native_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    nans,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.none(),
    st.booleans(),
)
native_states = st.lists(
    st.dictionaries(st.sampled_from(VARIABLES), native_values, max_size=5),
    min_size=1,
    max_size=12,
)


@st.composite
def attribute_indexes(draw):
    """Column layouts: permutations, gaps, absent and shared columns."""
    chosen = draw(st.lists(st.sampled_from(VARIABLES), unique=True, max_size=5))
    columns = draw(
        st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return dict(zip(chosen, columns))


def _same_bytes(states, index):
    got = pack_states(states, index)
    want = pack_states_reference(states, index)
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(states=st.one_of(batch_states, native_states), index=attribute_indexes())
def test_pack_states_equals_per_cell_loop(states, index):
    _same_bytes(states, index)


@settings(max_examples=200, deadline=None)
@given(states=native_states)
def test_pack_states_equals_per_cell_loop_on_build_index(states):
    _same_bytes(states, build_index(VARIABLES))


def test_pack_states_canonicalises_nan_payloads():
    payload = _nan_with_payload(0xDEAD, negative=True)
    states = [{"a": payload, "b": 1.0}, {"a": 2.0, "b": float("nan")}]
    index = build_index(("a", "b"))
    x = pack_states(states, index)
    canonical = np.full(1, float("nan")).tobytes()
    assert x[0, 0].tobytes() == canonical
    assert x[1, 1].tobytes() == canonical
    _same_bytes(states, index)


def test_pack_states_non_native_columns_fall_back_per_cell():
    states = [{"a": "abc", "b": 1}, {"a": "2.5", "b": 10**400}, {"a": None}]
    index = build_index(("a", "b"))
    x = pack_states(states, index)
    assert np.isnan(x[0, 0]) and x[1, 0] == 2.5 and np.isnan(x[2, 0])
    assert x[0, 1] == 1.0 and x[1, 1] == math.inf and np.isnan(x[2, 1])
    _same_bytes(states, index)


def test_pack_states_long_stream():
    """A long stream packs like the loop, fallback columns included."""
    rows = 2500
    states = [
        {"a": float(i), "b": i if i % 7 else None, "c": bool(i % 2)}
        for i in range(rows)
    ]
    del states[1000]["a"]
    states[1500]["c"] = "abc"
    states[-1]["b"] = 10**400
    _same_bytes(states, build_index(("a", "b", "c")))
    _same_bytes(states, {"a": 0, "b": 0, "c": 2})


def test_pack_states_empty_inputs():
    assert pack_states([], build_index(("a",))).shape == (0, 1)
    assert pack_states([{"a": 1.0}], {}).shape == (1, 0)
    _same_bytes([], {"a": 2})


# ----------------------------------------------------------------------
# Generated batch evaluator == interpreted evaluate_rows
# ----------------------------------------------------------------------
# A small atom pool, so predicates repeat atoms -- and share a variable
# and a value under different operators -- often.
atoms = st.builds(
    Comparison,
    variable=st.sampled_from(VARIABLES[:2]),
    op=st.sampled_from(["<=", ">", "==", "!="]),
    value=st.sampled_from([0.0, 1.0]),
)
predicates = st.recursive(
    st.one_of(atoms, st.just(TruePredicate()), st.just(FalsePredicate())),
    lambda children: st.one_of(
        st.builds(And, st.lists(children, max_size=4)),
        st.builds(Or, st.lists(children, max_size=4)),
    ),
    max_leaves=16,
)
row_values = st.one_of(
    st.sampled_from([-1.0, 0.0, 1.0, 2.5, -0.0]),
    st.floats(min_value=-3, max_value=3),
    st.just(float("nan")),
    st.sampled_from([math.inf, -math.inf]),
)


@st.composite
def batches(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    width = draw(st.integers(min_value=1, max_value=4))
    x = np.array(
        draw(st.lists(row_values, min_size=n * width, max_size=n * width)),
        dtype=np.float64,
    ).reshape(n, width)
    # Some variables lack a column, others share one.
    index = draw(
        st.dictionaries(
            st.sampled_from(VARIABLES[:3]),
            st.integers(min_value=0, max_value=width - 1),
            min_size=draw(st.sampled_from([0, 1, 2, 2, 2])),
        )
    )
    return x, index


@settings(max_examples=400, deadline=None)
@given(predicate=predicates, batch=batches())
def test_generated_batch_equals_interpreted_rows(predicate, batch):
    x, index = batch
    want = np.asarray(predicate.evaluate_rows(x, index), dtype=bool)
    for simplify in (False, True):
        compiled = compile_predicate(predicate, check=False, simplify=simplify)
        assert compiled.mode == "compiled"
        got = compiled.evaluate_rows(x, index)
        assert got.dtype == bool and got.shape == (len(x),)
        assert np.array_equal(got, want), compiled.source
        assert np.array_equal(compiled.evaluate_rows(x, {}), predicate.evaluate_rows(x, {}))


OPS = ("<=", ">", "==", "!=")


@pytest.mark.parametrize(
    "first, second", [(a, b) for a in OPS for b in OPS if a != b]
)
def test_atoms_differing_only_in_operator_stay_distinct(first, second):
    x = np.array([[-1.0], [0.0], [1.0], [2.0], [np.nan]])
    index = {"a": 0}
    for connective in (And, Or):
        predicate = connective(
            [Comparison("a", first, 1.0), Comparison("a", second, 1.0)]
        )
        compiled = compile_predicate(predicate, check=False, simplify=False)
        assert np.array_equal(
            compiled.evaluate_rows(x, index), predicate.evaluate_rows(x, index)
        ), compiled.source


def test_repeated_atoms_are_computed_once():
    le, gt = Comparison("a", "<=", 1.0), Comparison("a", ">", 1.0)
    ne, eq = Comparison("a", "!=", 1.0), Comparison("a", "==", 1.0)
    predicate = Or([And([le, ne]), And([le, eq]), And([gt, ne]), gt, le])
    compiled = compile_predicate(predicate, check=False, simplify=False)
    batch = compiled.source.split("def _batch")[1]
    assert batch.count("c0 <= 1.0") == 1
    assert batch.count("c0 > 1.0") == 1
    assert batch.count("c0 != 1.0") == 1
    assert batch.count("c0 == 1.0") == 1
    assert batch.count("_errstate") == 1
    x = np.array([[0.0], [1.0], [2.0], [np.nan]])
    index = {"a": 0}
    assert np.array_equal(
        compiled.evaluate_rows(x, index), predicate.evaluate_rows(x, index)
    )


def test_cached_variables_are_the_lowered_ones():
    dead = And([Comparison("x", "<=", 1.0), Comparison("x", ">", 5.0)])
    compiled = compile_predicate(Or([dead, Comparison("y", ">", 0.0), Comparison("b", "==", 1.0)]))
    assert compiled.variables == ("b", "y")
    assert compile_predicate(TruePredicate()).variables == ()


# ----------------------------------------------------------------------
# Ints beyond the float range read as ±inf, on every path
# ----------------------------------------------------------------------
HUGE = 10**400


def test_out_of_range_int_reads_as_signed_infinity():
    assert state_value({"x": HUGE}, "x") == math.inf
    assert state_value({"x": -HUGE}, "x") == -math.inf
    assert state_value({"x": 2**1024}, "x") == math.inf


def test_out_of_range_int_on_every_path():
    predicate = Or(
        [
            Comparison("x", ">", 5.0),
            And([Comparison("y", "<=", -5.0), Comparison("z", "!=", 0.0)]),
        ]
    )
    states = [
        {"x": HUGE, "y": 0.0, "z": 0.0},
        {"x": -HUGE, "y": -HUGE, "z": HUGE},
        {"x": -HUGE, "y": HUGE, "z": -HUGE},
        {"x": 1.0, "y": -HUGE, "z": 0},
        {"x": -(2**1024), "y": -HUGE},
    ]
    want = [True, True, False, False, False]
    source = predicate.to_source("state")
    compiled = compile_predicate(predicate)
    assert compiled.mode == "compiled"
    index = build_index(predicate.variables())
    x = pack_states(states, index)
    assert x.tobytes() == pack_states_reference(states, index).tobytes()
    for state, expected in zip(states, want):
        assert predicate.evaluate(state) is expected
        assert compiled.evaluate(state) is expected
        assert eval(source, {}, {"state": state}) is expected
    assert predicate.evaluate_rows(x, index).tolist() == want
    assert compiled.evaluate_rows(x, index).tolist() == want

    engine = StreamingEngine(batch_size=len(states))
    engine.add(Detector(predicate, name="huge"))
    (result,) = engine.evaluate_stream(states)
    assert result.faults == ()
    assert result.flags["huge"].tolist() == want


def test_out_of_range_int_does_not_fail_a_submitted_batch():
    engine = StreamingEngine(batch_size=2)
    engine.add(Detector(Comparison("x", "<=", 0.0), name="low"))
    engine.add(Detector(Comparison("x", ">", 0.0), name="high"))
    assert engine.submit({"x": -HUGE}) is None
    result = engine.submit({"x": HUGE})
    assert result.faults == ()
    assert result.flags["low"].tolist() == [True, False]
    assert result.flags["high"].tolist() == [False, True]
