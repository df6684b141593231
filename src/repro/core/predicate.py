"""First-order detection predicates.

The paper's detectors are predicates over module variables, read off a
decision tree "by interpreting the decision tree as a conjunction of
disjunctions" (Section VIII) -- i.e. a boolean combination of atomic
attribute comparisons.  This module is the predicate algebra:

* atoms: :class:`Comparison` (``variable <op> value``) and the
  constants :class:`TruePredicate` / :class:`FalsePredicate`;
* connectives: :class:`And`, :class:`Or`;
* evaluation over ``dict`` states (runtime assertions) and over NumPy
  instance arrays (offline evaluation against a dataset);
* normalisation: flattening, duplicate removal and numeric-bound
  merging, so extracted predicates stay readable;
* rendering to Python source, so a generated detector can be pasted
  into a target program as an executable assertion.

Comparisons on a missing variable evaluate to ``False`` -- a detector
cannot flag what it cannot read, the conservative choice the rule
learners also make.  This holds on all three evaluation paths: dict
states, NumPy instance arrays (missing/NaN columns) and the rendered
source (which reads variables via ``state.get`` with a NaN default,
so pasted assertions cannot raise ``KeyError`` or flag on NaN).  The
:mod:`repro.runtime` compiler preserves the same semantics.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from collections.abc import Mapping, Sequence

import numpy as np

__all__ = [
    "Predicate",
    "PredicateVisitor",
    "Comparison",
    "And",
    "Or",
    "TruePredicate",
    "FalsePredicate",
    "PredicateError",
    "read_number",
]

_OPS = {"<=", ">", "==", "!="}
_NAN = float("nan")


def read_number(raw: object) -> float:
    """Read one raw state value as a float; NaN when it is not a number.

    The one reading rule of every evaluation path -- the interpreter,
    the generated scalar closures and state packing
    (:func:`repro.runtime.pack.state_value`):

    * an exact ``float`` is returned as it is;
    * a ``bool`` reads as 0.0/1.0, matching the extractor's encoding;
    * anything else goes through ``float()``; an int beyond the float
      range reads as ±inf by its sign, as exact int/float comparison
      would order it against any finite threshold;
    * a value ``float()`` refuses (``None``, a non-numeric string)
      reads as NaN, i.e. missing.
    """
    if type(raw) is float:
        return raw
    if isinstance(raw, bool):
        return 1.0 if raw else 0.0
    try:
        return float(raw)  # type: ignore[arg-type]
    except OverflowError:
        return math.inf if raw > 0 else -math.inf  # type: ignore[operator]
    except (TypeError, ValueError):
        return _NAN


class PredicateError(ValueError):
    """Raised for malformed predicates."""


class Predicate(abc.ABC):
    """Abstract detection predicate."""

    @abc.abstractmethod
    def evaluate(self, state: Mapping[str, object]) -> bool:
        """Evaluate against a module state dict (runtime-assertion use)."""

    @abc.abstractmethod
    def evaluate_rows(
        self, x: np.ndarray, attribute_index: Mapping[str, int]
    ) -> np.ndarray:
        """Vectorised evaluation over dataset rows.

        ``attribute_index`` maps variable names to columns of ``x``;
        nominal attributes must be pre-encoded the same way the
        comparison values were (the extractor guarantees this).
        """

    @abc.abstractmethod
    def variables(self) -> frozenset[str]:
        """Variable names the predicate reads."""

    @abc.abstractmethod
    def simplify(self) -> "Predicate":
        """Return an equivalent, normalised predicate."""

    @abc.abstractmethod
    def complexity(self) -> int:
        """Number of atomic comparisons."""

    def to_source(self, state_name: str = "state") -> str:
        """Render as a Python boolean expression over ``state``."""
        return self._source(state_name)

    @abc.abstractmethod
    def _source(self, state_name: str) -> str: ...

    def accept(self, visitor: "PredicateVisitor"):
        """Double-dispatch hook for :class:`PredicateVisitor`.

        Atoms outside the core algebra (user subclasses, ordering
        invariants, majority votes) fall through to
        :meth:`PredicateVisitor.generic_visit`, so analyses can treat
        them as opaque rather than mis-handling them.
        """
        return visitor.generic_visit(self)

    def __call__(self, state: Mapping[str, object]) -> bool:
        return self.evaluate(state)


class PredicateVisitor:
    """Base visitor over the predicate algebra.

    Dispatch happens through :meth:`Predicate.accept`; every ``visit_*``
    method defaults to :meth:`generic_visit`, so a visitor only
    overrides the node kinds it cares about.  The static analyses in
    :mod:`repro.analysis` are built on this.
    """

    def visit(self, predicate: Predicate):
        return predicate.accept(self)

    def visit_comparison(self, predicate: "Comparison"):
        return self.generic_visit(predicate)

    def visit_and(self, predicate: "And"):
        return self.generic_visit(predicate)

    def visit_or(self, predicate: "Or"):
        return self.generic_visit(predicate)

    def visit_true(self, predicate: "TruePredicate"):
        return self.generic_visit(predicate)

    def visit_false(self, predicate: "FalsePredicate"):
        return self.generic_visit(predicate)

    def generic_visit(self, predicate: Predicate):
        """Fallback for nodes without a specific handler."""
        raise NotImplementedError(
            f"{type(self).__name__} has no handler for "
            f"{type(predicate).__name__}"
        )


@dataclasses.dataclass(frozen=True)
class TruePredicate(Predicate):
    """Always flags (complete, maximally inaccurate)."""

    def evaluate(self, state: Mapping[str, object]) -> bool:
        return True

    def evaluate_rows(self, x, attribute_index):
        return np.ones(len(np.atleast_2d(x)), dtype=bool)

    def variables(self) -> frozenset[str]:
        return frozenset()

    def simplify(self) -> Predicate:
        return self

    def complexity(self) -> int:
        return 0

    def _source(self, state_name: str) -> str:
        return "True"

    def accept(self, visitor: "PredicateVisitor"):
        return visitor.visit_true(self)

    def __str__(self) -> str:
        return "TRUE"


@dataclasses.dataclass(frozen=True)
class FalsePredicate(Predicate):
    """Never flags (accurate, maximally incomplete)."""

    def evaluate(self, state: Mapping[str, object]) -> bool:
        return False

    def evaluate_rows(self, x, attribute_index):
        return np.zeros(len(np.atleast_2d(x)), dtype=bool)

    def variables(self) -> frozenset[str]:
        return frozenset()

    def simplify(self) -> Predicate:
        return self

    def complexity(self) -> int:
        return 0

    def _source(self, state_name: str) -> str:
        return "False"

    def accept(self, visitor: "PredicateVisitor"):
        return visitor.visit_false(self)

    def __str__(self) -> str:
        return "FALSE"


@dataclasses.dataclass(frozen=True)
class Comparison(Predicate):
    """Atomic comparison ``variable <op> value``.

    ``value`` is a float for numeric variables.  For nominal/boolean
    variables the comparison is ``==``/``!=`` against the *encoded*
    value (0.0/1.0 for booleans); ``label`` carries the human-readable
    value string for rendering.
    """

    variable: str
    op: str
    value: float
    label: str | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise PredicateError(f"unknown comparison operator {self.op!r}")
        try:
            finite = math.isfinite(self.value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise PredicateError("comparison values must be finite")

    def evaluate(self, state: Mapping[str, object]) -> bool:
        value = state.get(self.variable, _NAN)
        if type(value) is not float:
            value = read_number(value)
        # Missing and NaN read as NaN, which every operator below
        # answers False; ``!=`` needs its own NaN test.
        op = self.op
        if op == "<=":
            return value <= self.value
        if op == ">":
            return value > self.value
        if op == "==":
            return value == self.value
        return value == value and value != self.value

    def evaluate_rows(self, x, attribute_index):
        x = np.atleast_2d(x)
        if self.variable not in attribute_index:
            return np.zeros(len(x), dtype=bool)
        column = x[:, attribute_index[self.variable]]
        with np.errstate(invalid="ignore"):
            if self.op == "<=":
                return column <= self.value
            if self.op == ">":
                return column > self.value
            if self.op == "==":
                return column == self.value
            return ~np.isnan(column) & (column != self.value)

    def variables(self) -> frozenset[str]:
        return frozenset((self.variable,))

    def simplify(self) -> Predicate:
        return self

    def complexity(self) -> int:
        return 1

    def _source(self, state_name: str) -> str:
        # ``.get`` with a NaN default keeps the rendered assertion
        # consistent with :meth:`evaluate`: a missing variable reads
        # as NaN and every comparison on NaN is False.  ``!=`` is
        # rendered as ``< or >`` because Python's ``nan != v`` is True.
        lookup = f"{state_name}.get({self.variable!r}, float('nan'))"
        if self.op == "!=":
            return f"({lookup} < {self.value!r} or {lookup} > {self.value!r})"
        return f"{lookup} {self.op} {self.value!r}"

    def accept(self, visitor: "PredicateVisitor"):
        return visitor.visit_comparison(self)

    def __str__(self) -> str:
        shown = self.label if self.label is not None else f"{self.value:.6g}"
        return f"{self.variable} {self.op} {shown}"


class _Compound(Predicate):
    """Shared behaviour of And/Or."""

    _symbol = "?"

    def __init__(self, children: Sequence[Predicate]) -> None:
        self.children: tuple[Predicate, ...] = tuple(children)

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for child in self.children:
            out |= child.variables()
        return out

    def complexity(self) -> int:
        return sum(child.complexity() for child in self.children)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.children == other.children  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))

    def __str__(self) -> str:
        if not self.children:
            return str(self.simplify())
        parts = []
        for child in self.children:
            text = str(child)
            if isinstance(child, _Compound) and len(child.children) > 1:
                text = f"({text})"
            parts.append(text)
        return f" {self._symbol} ".join(parts)

    def _source(self, state_name: str) -> str:
        if not self.children:
            return self.simplify()._source(state_name)
        joiner = " and " if isinstance(self, And) else " or "
        parts = []
        for child in self.children:
            text = child._source(state_name)
            if isinstance(child, _Compound) and len(child.children) > 1:
                text = f"({text})"
            parts.append(text)
        return joiner.join(parts)


class And(_Compound):
    """Conjunction; empty conjunction is TRUE."""

    _symbol = "AND"

    def accept(self, visitor: "PredicateVisitor"):
        return visitor.visit_and(self)

    def evaluate(self, state: Mapping[str, object]) -> bool:
        for child in self.children:
            if not child.evaluate(state):
                return False
        return True

    def evaluate_rows(self, x, attribute_index):
        x = np.atleast_2d(x)
        out = np.ones(len(x), dtype=bool)
        for child in self.children:
            out &= child.evaluate_rows(x, attribute_index)
        return out

    def simplify(self) -> Predicate:
        flat: list[Predicate] = []
        for child in (c.simplify() for c in self.children):
            if isinstance(child, FalsePredicate):
                return FalsePredicate()
            if isinstance(child, TruePredicate):
                continue
            if isinstance(child, And):
                flat.extend(child.children)
            else:
                flat.append(child)
        flat = _merge_bounds(flat, conjunction=True)
        flat = _dedupe(flat)
        if not flat:
            return TruePredicate()
        if len(flat) == 1:
            return flat[0]
        return And(flat)


class Or(_Compound):
    """Disjunction; empty disjunction is FALSE."""

    _symbol = "OR"

    def accept(self, visitor: "PredicateVisitor"):
        return visitor.visit_or(self)

    def evaluate(self, state: Mapping[str, object]) -> bool:
        for child in self.children:
            if child.evaluate(state):
                return True
        return False

    def evaluate_rows(self, x, attribute_index):
        x = np.atleast_2d(x)
        out = np.zeros(len(x), dtype=bool)
        for child in self.children:
            out |= child.evaluate_rows(x, attribute_index)
        return out

    def simplify(self) -> Predicate:
        flat: list[Predicate] = []
        for child in (c.simplify() for c in self.children):
            if isinstance(child, TruePredicate):
                return TruePredicate()
            if isinstance(child, FalsePredicate):
                continue
            if isinstance(child, Or):
                flat.extend(child.children)
            else:
                flat.append(child)
        flat = _merge_bounds(flat, conjunction=False)
        flat = _dedupe(flat)
        if not flat:
            return FalsePredicate()
        if len(flat) == 1:
            return flat[0]
        return Or(flat)


def _dedupe(children: list[Predicate]) -> list[Predicate]:
    seen: set[Predicate] = set()
    out: list[Predicate] = []
    for child in children:
        if child not in seen:
            seen.add(child)
            out.append(child)
    return out


def _merge_bounds(children: list[Predicate], conjunction: bool) -> list[Predicate]:
    """Merge redundant numeric bounds on the same variable.

    In a conjunction, ``x <= 5 AND x <= 7`` becomes ``x <= 5`` (the
    tightest bound wins); in a disjunction the loosest wins.  ``>``
    bounds merge symmetrically.  Other atoms pass through untouched.
    """
    upper: dict[str, Comparison] = {}
    lower: dict[str, Comparison] = {}
    rest: list[Predicate] = []
    order: list[tuple[str, str]] = []
    for child in children:
        if isinstance(child, Comparison) and child.op in ("<=", ">"):
            table = upper if child.op == "<=" else lower
            current = table.get(child.variable)
            if current is None:
                table[child.variable] = child
                order.append((child.variable, child.op))
            else:
                if child.op == "<=":
                    keep_new = (
                        child.value < current.value
                        if conjunction
                        else child.value > current.value
                    )
                else:
                    keep_new = (
                        child.value > current.value
                        if conjunction
                        else child.value < current.value
                    )
                if keep_new:
                    table[child.variable] = child
        else:
            rest.append(child)
    merged: list[Predicate] = []
    for variable, op in order:
        merged.append((upper if op == "<=" else lower)[variable])
    return merged + rest
