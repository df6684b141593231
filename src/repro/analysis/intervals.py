"""Interval abstract domain for the predicate algebra.

Every atom of the core algebra constrains one variable to a set of
*defined, non-NaN* values of a fixed shape:

* ``x <= c``  ->  ``[-inf, c]``
* ``x > c``   ->  ``(c, +inf]``
* ``x == c``  ->  ``{c}``
* ``x != c``  ->  everything except ``{c}``

Intersections of these stay of the form *(open lower bound, closed
upper bound] minus a finite set of excluded points, or a single point*,
so :class:`Constraint` represents exactly that and is closed under
:meth:`Constraint.intersect`.  Definedness is implicit: a constraint
describes the values a variable may take **given that every atom that
produced it evaluated true**, which in this algebra already implies the
variable is present and not NaN.  The checker in
:mod:`repro.analysis.simplify` leans on that: a rewrite justified by
``a ⊆ b`` is sound for missing/NaN states too, because the subset
relation is only ever used where the stronger side's atoms are known to
have fired.

Infinite bounds are inclusive of their infinity (``x <= c`` admits
``-inf``; ``x > c`` admits ``+inf``), matching IEEE comparison results
on state values, while comparison constants themselves are always
finite (enforced by :class:`repro.core.predicate.Comparison`).
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.predicate import Comparison

__all__ = ["Constraint", "atom_constraint"]

_INF = math.inf


@dataclasses.dataclass(frozen=True)
class Constraint:
    """A representable set of defined values for one variable.

    Exactly one of three shapes:

    * ``empty=True`` -- the empty set (an unsatisfiable conjunction);
    * ``eq`` set -- the single point ``{eq}``;
    * otherwise -- the interval ``(lo, hi]`` minus ``excluded`` (with
      ``lo=-inf`` meaning unbounded below *inclusive* of ``-inf`` and
      ``hi=+inf`` unbounded above inclusive of ``+inf``).

    :func:`atom_constraint` and the operations below only build
    constraints in this shape: a non-empty interval (``lo < hi``
    unless ``lo`` is ``-inf``) whose excluded points lie inside it.
    :meth:`full` is one shared instance, and intersecting with it
    returns the other operand unchanged.
    """

    lo: float = -_INF
    hi: float = _INF
    eq: float | None = None
    excluded: frozenset[float] = frozenset()
    empty: bool = False

    # -- constructors --------------------------------------------------
    @classmethod
    def full(cls) -> "Constraint":
        return _FULL

    @classmethod
    def none(cls) -> "Constraint":
        return _EMPTY

    @classmethod
    def point(cls, value: float) -> "Constraint":
        return cls(eq=value)

    # -- predicates ----------------------------------------------------
    @property
    def is_full(self) -> bool:
        return (
            not self.empty
            and self.eq is None
            and self.lo == -_INF
            and self.hi == _INF
            and not self.excluded
        )

    def contains_value(self, value: float) -> bool:
        """Membership of one defined, non-NaN value."""
        if self.empty or math.isnan(value):
            return False
        if self.eq is not None:
            return value == self.eq
        if self.lo != -_INF and not value > self.lo:
            return False
        if not value <= self.hi:
            return False
        return value not in self.excluded

    def subset_of(self, other: "Constraint") -> bool:
        """Provable ``self ⊆ other`` (sound, and complete for this
        representation)."""
        if self.empty:
            return True
        if other.empty:
            return False
        if self.eq is not None:
            return other.contains_value(self.eq)
        if other.eq is not None:
            return False  # a non-degenerate interval is never a point
        if other.lo != -_INF and (self.lo == -_INF or self.lo < other.lo):
            return False
        if self.hi > other.hi:
            return False
        # Every point other excludes must be absent from self too.
        return all(not self.contains_value(e) for e in other.excluded)

    # -- operations ----------------------------------------------------
    def intersect(self, other: "Constraint") -> "Constraint":
        if other is _FULL:
            return self
        if self is _FULL:
            return other
        if self.empty or other.empty:
            return _EMPTY
        if self.eq is not None:
            return self if other.contains_value(self.eq) else _EMPTY
        if other.eq is not None:
            return other if self.contains_value(other.eq) else _EMPTY
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo != -_INF and lo >= hi:
            return _EMPTY
        excluded = frozenset(
            e
            for e in self.excluded | other.excluded
            if (lo == -_INF or e > lo) and e <= hi
        )
        return Constraint(lo=lo, hi=hi, excluded=excluded)

    def union(self, other: "Constraint") -> "Constraint | None":
        """The union, when it is representable -- else ``None``.

        Only plain intervals (no point, no exclusions) that overlap or
        touch merge; and a full-range union is deliberately reported as
        unrepresentable: ``x <= c  OR  x > c`` is *not* TRUE (it is a
        definedness test -- false for missing/NaN ``x``), and the
        algebra cannot express "x is defined" without a bound.
        """
        if self.empty:
            return other
        if other.empty:
            return self
        if self.eq is not None or other.eq is not None:
            return None
        if self.excluded or other.excluded:
            return None
        if max(self.lo, other.lo) > min(self.hi, other.hi):
            return None  # disjoint with a gap
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        if lo == -_INF and hi == _INF:
            return None  # full range: not expressible (definedness)
        return Constraint(lo=lo, hi=hi)

    # -- rendering -----------------------------------------------------
    def atoms(self, variable: str) -> list[Comparison]:
        """A minimal atom conjunction denoting this constraint.

        Undefined for the empty constraint (the caller should have
        rewritten the clause to FALSE) and for the full constraint
        (no atoms needed -- but note a variable with *no* atoms also
        drops the implicit definedness requirement, so callers only
        reach this for constraints produced by at least one atom,
        which are never full).
        """
        if self.empty:
            raise ValueError("empty constraint has no atom form")
        if self.eq is not None:
            return [Comparison(variable, "==", self.eq)]
        out: list[Comparison] = []
        if self.lo != -_INF:
            out.append(Comparison(variable, ">", self.lo))
        if self.hi != _INF:
            out.append(Comparison(variable, "<=", self.hi))
        for e in sorted(self.excluded):
            out.append(Comparison(variable, "!=", e))
        if not out:
            raise ValueError(
                "full constraint has no atom form (definedness is implicit)"
            )
        return out

    def __str__(self) -> str:
        if self.empty:
            return "{}"
        if self.eq is not None:
            return f"{{{self.eq:g}}}"
        lo = "-inf" if self.lo == -_INF else f"{self.lo:g}"
        hi = "+inf" if self.hi == _INF else f"{self.hi:g}"
        body = f"({lo}, {hi}]"
        if self.excluded:
            pts = ", ".join(f"{e:g}" for e in sorted(self.excluded))
            body += f" \\ {{{pts}}}"
        return body


_FULL = Constraint()
_EMPTY = Constraint(empty=True)


def atom_constraint(atom: Comparison) -> Constraint:
    """The constraint one atom places on its variable when it fires."""
    if atom.op == "<=":
        return Constraint(hi=atom.value)
    if atom.op == ">":
        return Constraint(lo=atom.value)
    if atom.op == "==":
        return Constraint.point(atom.value)
    return Constraint(excluded=frozenset((atom.value,)))
