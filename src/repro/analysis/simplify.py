"""Abstract-interpretation checker and simplifier for predicates.

The mining pipeline reads detectors off decision trees and rule sets;
the resulting predicates routinely carry atoms that interval reasoning
can discharge: conjunctions whose bounds contradict each other
(unsatisfiable clauses), atoms implied by an enclosing conjunction
(context tautologies), disjunction branches implied by a sibling
(subsumed), and pairs of branches whose intervals abut and merge.  This
module walks the algebra with an interval environment per variable
(:mod:`repro.analysis.intervals`) and emits a canonical, provably
equivalent predicate with fewer atoms, plus a verdict trail saying what
was discharged and why -- the raw material for the lint rules in
:mod:`repro.analysis.lint`.

Equivalence is over *all* states, including states where variables are
missing or NaN: every rewrite is justified by an implication between
atoms on the same variables, so the algebra's "comparisons on missing
variables are false" semantics are preserved (see the hypothesis
property test in ``tests/analysis/test_simplify.py``, and the compiler
self-check, which re-verifies each simplified predicate against the
original at lowering time).

Atoms outside the core algebra (ordering invariants, majority votes,
user subclasses) are treated as opaque: they are kept in place and
never reasoned about.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping

from repro.analysis.intervals import Constraint, atom_constraint
from repro.core.predicate import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    Predicate,
    TruePredicate,
)

__all__ = [
    "ClauseVerdict",
    "SimplificationResult",
    "simplify_predicate",
    "check_predicate",
]

_Env = Mapping[str, Constraint]
_Table = dict[str, Constraint]


@dataclasses.dataclass(frozen=True)
class ClauseVerdict:
    """One discharged (or diagnosed) clause.

    ``status`` is one of:

    * ``"unsatisfiable"`` -- a conjunction whose constraints have empty
      intersection; rewritten to FALSE;
    * ``"tautological"`` -- an atom or branch implied by its context;
      rewritten to TRUE (and absorbed);
    * ``"subsumed"`` -- a disjunction branch implied by a sibling
      branch; dropped;
    * ``"merged"`` -- two branches whose intervals abut; fused;
    * ``"redundant"`` -- atoms on one variable collapsed to a tighter,
      smaller set;
    * ``"vacuous"`` -- a disjunction that covers every *defined* value
      of a variable (e.g. ``x <= 5 OR x > 5``): not rewritten (it is a
      definedness test, not TRUE), but worth a lint warning.
    """

    status: str
    clause: str
    detail: str = ""


@dataclasses.dataclass
class SimplificationResult:
    """Outcome of one simplification pass."""

    original: Predicate
    simplified: Predicate
    verdicts: list[ClauseVerdict]

    @property
    def atoms_before(self) -> int:
        return self.original.complexity()

    @property
    def atoms_after(self) -> int:
        return self.simplified.complexity()

    @property
    def changed(self) -> bool:
        return self.atoms_after < self.atoms_before

    def verdicts_with(self, status: str) -> list[ClauseVerdict]:
        return [v for v in self.verdicts if v.status == status]


_CORE = (Comparison, And, Or, TruePredicate, FalsePredicate)

# Canonical atom ordering inside a conjunction: lower bound, upper
# bound, equality, exclusions -- reads like an interval.
_OP_ORDER = {">": 0, "<=": 1, "==": 2, "!=": 3}


class _Simplifier:
    def __init__(self) -> None:
        self.verdicts: list[ClauseVerdict] = []

    def _note(self, status: str, clause: object, detail: str = "") -> None:
        self.verdicts.append(ClauseVerdict(status, str(clause), detail))

    # ------------------------------------------------------------------
    def simplify(self, predicate: Predicate, env: _Env) -> Predicate:
        # Most frequent kind first: ``isinstance`` answers an exact type
        # at once, but each miss is a full ABC subclass check.
        if isinstance(predicate, Comparison):
            return self._atom(predicate, env)
        if isinstance(predicate, And):
            return self._conjunction(predicate, env)
        if isinstance(predicate, Or):
            return self._disjunction(predicate, env)
        if isinstance(predicate, (TruePredicate, FalsePredicate)):
            return predicate
        # Opaque atom: its own simplify() is equivalence-preserving by
        # the Predicate contract; interval reasoning does not apply.
        return predicate.simplify()

    # -- atoms ---------------------------------------------------------
    def _atom(self, atom: Comparison, env: _Env) -> Predicate:
        context = env.get(atom.variable)
        if context is None:
            return atom
        constraint = atom_constraint(atom)
        if context.subset_of(constraint):
            # Context atoms fired => variable defined and inside a set
            # this atom accepts: the atom is true whenever it matters.
            self._note("tautological", atom, "implied by enclosing conjunction")
            return TruePredicate()
        if context.intersect(constraint).empty:
            self._note(
                "unsatisfiable", atom, "contradicts enclosing conjunction"
            )
            return FalsePredicate()
        return atom

    # -- conjunctions --------------------------------------------------
    def _conjunction(self, conj: And, env: _Env) -> Predicate:
        atoms: list[Comparison] = []
        opaque: list[Predicate] = []
        compounds: list[Predicate] = []
        pending = list(conj.children)
        while pending:
            raw = pending.pop(0)
            if isinstance(raw, Or):
                # Deferred: disjunction children are simplified once,
                # below, under the conjunction's full environment.
                compounds.append(raw)
                continue
            child = self.simplify(raw, env)
            if isinstance(child, Comparison):
                atoms.append(child)
            elif isinstance(child, FalsePredicate):
                return FalsePredicate()
            elif isinstance(child, TruePredicate):
                continue
            elif isinstance(child, And):
                pending = list(child.children) + pending
            elif isinstance(child, Or):
                compounds.append(child)
            else:
                opaque.append(child)

        # Fold this conjunction's atoms into per-variable constraints.
        groups: dict[str, list[Comparison]] = {}
        for atom in atoms:
            groups.setdefault(atom.variable, []).append(atom)
        local: dict[str, Constraint] = {}
        # The environment compound children are re-simplified under.
        inner_env = dict(env)
        for variable, group in groups.items():
            constraint = Constraint.full()
            for atom in group:
                constraint = constraint.intersect(atom_constraint(atom))
            local[variable] = constraint
            combined = constraint.intersect(env.get(variable, Constraint.full()))
            if combined.empty:
                self._note(
                    "unsatisfiable",
                    conj,
                    f"no value of {variable!r} satisfies the clause",
                )
                return FalsePredicate()
            inner_env[variable] = combined

        emitted: list[Comparison] = []
        for variable in sorted(groups):
            group = groups[variable]
            if len(group) == 1:
                # A lone atom is its own constraint's atom form.
                emitted.append(group[0])
                continue
            labels = {(a.op, a.value): a.label for a in group if a.label is not None}
            for atom in local[variable].atoms(variable):
                label = labels.get((atom.op, atom.value))
                if label is not None:
                    atom = dataclasses.replace(atom, label=label)
                emitted.append(atom)
        if len(emitted) < len(atoms):
            self._note(
                "redundant",
                conj,
                f"{len(atoms)} atoms collapse to {len(emitted)}",
            )

        # Re-simplify compound children under the tightened environment
        # so branches contradicting (or implied by) the siblings fold.
        children: list[Predicate] = list(emitted)
        for compound in compounds:
            again = self.simplify(compound, inner_env)
            if isinstance(again, FalsePredicate):
                return FalsePredicate()
            if isinstance(again, TruePredicate):
                continue
            if isinstance(again, And):
                # A disjunction may collapse to a conjunction (single
                # branch); splice its atoms in without re-deriving the
                # environment -- correctness does not need a fixpoint.
                children.extend(again.children)
            else:
                children.append(again)
        children.extend(opaque)
        if not children:
            return TruePredicate()
        if len(children) == 1:
            return children[0]
        return And(children)

    # -- disjunctions --------------------------------------------------
    def _disjunction(self, disj: Or, env: _Env) -> Predicate:
        branches: list[Predicate] = []
        pending = list(disj.children)
        while pending:
            child = self.simplify(pending.pop(0), env)
            if isinstance(child, TruePredicate):
                self._note("tautological", disj, "a branch is always true")
                return TruePredicate()
            if isinstance(child, FalsePredicate):
                continue
            if isinstance(child, Or):
                pending = list(child.children) + pending
            else:
                branches.append(child)
        if not branches:
            return FalsePredicate()

        branches, tables = self._prune_branches(branches)
        self._diagnose_vacuous(branches, tables)
        if len(branches) == 1:
            return branches[0]
        return Or(sorted(branches, key=str))

    def _prune_branches(
        self, branches: list[Predicate]
    ) -> tuple[list[Predicate], list[_Table | None]]:
        """Drop duplicate/subsumed branches; merge abutting intervals.

        Returns the surviving branches and their branch tables.
        """
        tables = [_branch_table(b) for b in branches]
        changed = True
        while changed:
            changed = False
            # Subsumption (covers exact duplicates too): drop branch i
            # when some sibling j is implied by it.
            for i in range(len(branches)):
                for j in range(len(branches)):
                    if i == j or branches[i] is None or branches[j] is None:
                        continue
                    if _implies(tables[i], tables[j]):
                        self._note(
                            "subsumed",
                            branches[i],
                            f"implied by sibling branch {branches[j]}",
                        )
                        branches[i] = None
                        changed = True
                        break
            # Interval merging: two branches equal on every variable
            # but one, whose constraints union into a representable
            # interval, fuse into a single branch.
            for i in range(len(branches)):
                for j in range(i + 1, len(branches)):
                    if branches[i] is None or branches[j] is None:
                        continue
                    merged = _merge_tables(tables[i], tables[j])
                    if merged is None:
                        continue
                    fused = _table_predicate(merged)
                    self._note(
                        "merged",
                        Or([branches[i], branches[j]]),
                        f"fused into {fused}",
                    )
                    branches[i] = fused
                    tables[i] = merged
                    branches[j] = None
                    changed = True
        kept = [i for i, b in enumerate(branches) if b is not None]
        return [branches[i] for i in kept], [tables[i] for i in kept]

    def _diagnose_vacuous(
        self, branches: list[Predicate], tables: list[_Table | None]
    ) -> None:
        """Warn when sibling branches cover every defined value."""
        by_variable: dict[str, list[Constraint]] = {}
        for table in tables:
            if table is not None and len(table) == 1:
                ((variable, constraint),) = table.items()
                by_variable.setdefault(variable, []).append(constraint)
        for variable, constraints in by_variable.items():
            for i in range(len(constraints)):
                for j in range(i + 1, len(constraints)):
                    if _covers_full(constraints[i], constraints[j]):
                        self._note(
                            "vacuous",
                            Or(branches),
                            f"branches cover every defined value of "
                            f"{variable!r}; the disjunction only tests "
                            "definedness",
                        )
                        return


def _covers_full(a: Constraint, b: Constraint) -> bool:
    """Two interval constraints whose union is the whole real line."""
    if a.empty or b.empty or a.eq is not None or b.eq is not None:
        return False
    if a.excluded or b.excluded:
        return False
    return (
        min(a.lo, b.lo) == -math.inf
        and max(a.hi, b.hi) == math.inf
        and max(a.lo, b.lo) <= min(a.hi, b.hi)
    )


def _branch_table(branch: Predicate) -> dict[str, Constraint] | None:
    """Per-variable constraints of a pure conjunctive branch.

    ``None`` when the branch contains anything but core atoms (opaque
    atoms, nested disjunctions) -- such branches are kept verbatim.
    """
    if isinstance(branch, Comparison):
        return {branch.variable: atom_constraint(branch)}
    if not isinstance(branch, And):
        return None
    table: dict[str, Constraint] = {}
    for child in branch.children:
        if not isinstance(child, Comparison):
            return None
        table[child.variable] = table.get(
            child.variable, Constraint.full()
        ).intersect(atom_constraint(child))
    return table


def _implies(
    stronger: dict[str, Constraint] | None,
    weaker: dict[str, Constraint] | None,
) -> bool:
    """Branch implication: every state satisfying ``stronger`` satisfies
    ``weaker`` (definedness included: weaker's variables must all be
    constrained -- hence defined -- under stronger)."""
    if stronger is None or weaker is None:
        return False
    if not weaker.keys() <= stronger.keys():
        return False
    for variable, constraint in weaker.items():
        mine = stronger.get(variable)
        if mine is None or not mine.subset_of(constraint):
            return False
    return True


def _merge_tables(
    a: dict[str, Constraint] | None, b: dict[str, Constraint] | None
) -> dict[str, Constraint] | None:
    """Fuse two branch tables differing on exactly one variable."""
    if a is None or b is None or a.keys() != b.keys() or not a:
        return None
    differing = [v for v in a if a[v] != b[v]]
    if len(differing) != 1:
        return None
    variable = differing[0]
    union = a[variable].union(b[variable])
    if union is None:
        return None
    merged = dict(a)
    merged[variable] = union
    return merged


def _table_predicate(table: dict[str, Constraint]) -> Predicate:
    atoms: list[Comparison] = []
    for variable in sorted(table):
        atoms.extend(table[variable].atoms(variable))
    if len(atoms) == 1:
        return atoms[0]
    return And(atoms)


def simplify_predicate(predicate: Predicate) -> SimplificationResult:
    """Run the checker and return the canonical simplified predicate.

    The result is provably equivalent to the input on every state
    (missing and NaN variables included), never has more atoms, and is
    a fixed point of the checker (simplifying it again is a no-op).
    """
    worker = _Simplifier()
    simplified = worker.simplify(predicate, {})
    # Splicing a collapsed disjunction into its parent conjunction can
    # leave atoms a later walk would fold, so iterate to the fixed
    # point; the atom count is non-increasing, the walk deterministic,
    # and real predicates settle in one or two passes (the cap only
    # guards against a rewrite cycle ever being introduced).
    for _ in range(8):
        again = worker.simplify(simplified, {})
        if again == simplified:
            break
        simplified = again
    verdicts: list[ClauseVerdict] = []
    seen: set[ClauseVerdict] = set()
    for verdict in worker.verdicts:
        if verdict not in seen:
            seen.add(verdict)
            verdicts.append(verdict)
    return SimplificationResult(predicate, simplified, verdicts)


def check_predicate(predicate: Predicate) -> list[ClauseVerdict]:
    """The verdict trail alone (see :class:`ClauseVerdict`)."""
    return simplify_predicate(predicate).verdicts
