"""The interpreter and interval intersection as they read before the
fast paths, kept verbatim as test oracles.

``evaluate`` is the old ``evaluate`` of the predicate algebra's core
nodes (``all``/``any`` over generators, ``float()`` under ``try`` for
every raw value); ``read`` is the old ``state_value`` reading of one
present raw value; ``full`` and ``intersect`` are the old
``Constraint.full`` (a fresh instance per call) and
``Constraint.intersect`` (no shortcut for a full operand).  The
differential tests in ``tests/core/test_predicate_fastpath.py``
compare the current code with these.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from repro.analysis.intervals import Constraint
from repro.core.predicate import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    Predicate,
    TruePredicate,
)

_INF = math.inf


def evaluate(predicate: Predicate, state: Mapping[str, object]) -> bool:
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, FalsePredicate):
        return False
    if isinstance(predicate, And):
        return all(evaluate(child, state) for child in predicate.children)
    if isinstance(predicate, Or):
        return any(evaluate(child, state) for child in predicate.children)
    assert isinstance(predicate, Comparison)
    if predicate.variable not in state:
        return False
    raw = state[predicate.variable]
    if isinstance(raw, bool):
        value = 1.0 if raw else 0.0
    else:
        try:
            value = float(raw)  # type: ignore[arg-type]
        except OverflowError:
            value = math.inf if raw > 0 else -math.inf  # type: ignore[operator]
        except (TypeError, ValueError):
            return False
    if math.isnan(value):
        return False
    if predicate.op == "<=":
        return value <= predicate.value
    if predicate.op == ">":
        return value > predicate.value
    if predicate.op == "==":
        return value == predicate.value
    return value != predicate.value


def read(raw: object) -> float:
    if isinstance(raw, bool):
        return 1.0 if raw else 0.0
    try:
        return float(raw)  # type: ignore[arg-type]
    except OverflowError:
        return math.inf if raw > 0 else -math.inf  # type: ignore[operator]
    except (TypeError, ValueError):
        return math.nan


def full() -> Constraint:
    return Constraint()


def intersect(self: Constraint, other: Constraint) -> Constraint:
    if self.empty or other.empty:
        return Constraint(empty=True)
    if self.eq is not None:
        return self if other.contains_value(self.eq) else Constraint(empty=True)
    if other.eq is not None:
        return other if self.contains_value(other.eq) else Constraint(empty=True)
    lo = max(self.lo, other.lo)
    hi = min(self.hi, other.hi)
    if lo != -_INF and lo >= hi:
        return Constraint(empty=True)
    excluded = frozenset(
        e
        for e in self.excluded | other.excluded
        if (lo == -_INF or e > lo) and e <= hi
    )
    return Constraint(lo=lo, hi=hi, excluded=excluded)
