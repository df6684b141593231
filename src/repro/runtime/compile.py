"""Predicate compilation: lowering the AST to fast evaluators.

``Predicate.evaluate`` walks the AST per state and ``evaluate_rows``
walks it per batch with a dict lookup per atom; both are fine offline
but dominate the cost of a deployed detector.  This module lowers the
predicate algebra once, ahead of serving, into:

* a **batch evaluator** over an instance array: each variable's
  column is read once, each distinct atom ``(variable, op, value)`` is
  computed once however often the predicate repeats it, and the
  connectives combine those locals with ``&``/``|`` (no AST walk, no
  per-atom dispatch, one ``np.errstate`` per call);
* a **scalar closure**: each variable is read once via
  :func:`repro.runtime.pack.state_value` and the comparisons are plain
  expressions, so per-state checks skip the interpreter's dispatch.

Both are generated Python source, emitted together and run through
one :func:`compile` call.

Both forms preserve the algebra's missing/NaN semantics (comparisons
on a missing or NaN variable are ``False``, including ``!=``, which is
lowered to ``< or >`` so NaN cannot sneak through).

Compilation never fails: atoms outside the core algebra (ordering
invariants, majority votes, user subclasses) and any lowering whose
self-check disagrees with the interpreted path fall back to the
interpreted evaluators, flagged via ``CompiledPredicate.mode`` and
``fallback_reason`` so the metrics layer can report which detectors
run slow.

Before lowering, the predicate is run through the static simplifier
(:func:`repro.analysis.simplify.simplify_predicate`, disable with
``simplify=False``): the *lowered* form is the provably-equivalent
canonical predicate, while ``CompiledPredicate.predicate`` stays the
original.  The self-check battery is built from -- and compared
against -- the **original** interpreted predicate, so it doubles as an
independent equivalence check of the simplification itself.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Callable, Mapping
from operator import getitem

import numpy as np

from repro.analysis.simplify import simplify_predicate
from repro.core.predicate import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    Predicate,
    TruePredicate,
)
from repro.runtime.pack import build_index, pack_states, state_value

__all__ = ["CompiledPredicate", "compile_predicate"]

_NAN = float("nan")


class _Unsupported(Exception):
    """Internal: the predicate contains an atom we cannot lower."""


@dataclasses.dataclass
class CompiledPredicate:
    """A predicate lowered for serving.

    ``mode`` is ``"compiled"`` when both the batch and scalar lowered
    forms are in use, ``"interpreted"`` when evaluation fell back to
    the AST walk (``fallback_reason`` says why).  Either way the
    observable behaviour is identical to ``Predicate.evaluate`` /
    ``Predicate.evaluate_rows``.
    """

    predicate: Predicate
    mode: str
    #: The generated source of both lowered evaluators (``None`` when
    #: interpreted).
    source: str | None
    _scalar: Callable[[Mapping[str, object]], bool]
    _batch: Callable[[np.ndarray, Mapping[str, int]], np.ndarray] | None
    fallback_reason: str | None = None
    #: The provably-equivalent predicate actually lowered (the original
    #: when simplification was disabled or changed nothing).  Batch
    #: packing only needs *its* variables.
    lowered: Predicate = None  # type: ignore[assignment]
    #: ``lowered``'s variables, sorted: the columns a batch reads.
    variables: tuple[str, ...] = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if self.lowered is None:
            self.lowered = self.predicate
        self.variables = tuple(sorted(self.lowered.variables()))

    @property
    def is_compiled(self) -> bool:
        return self.mode == "compiled"

    def evaluate(self, state: Mapping[str, object]) -> bool:
        """Scalar check, bit-identical to ``Predicate.evaluate``."""
        return self._scalar(state)

    def __call__(self, state: Mapping[str, object]) -> bool:
        return self._scalar(state)

    def evaluate_rows(
        self, x: np.ndarray, attribute_index: Mapping[str, int]
    ) -> np.ndarray:
        """Batch check, bit-identical to ``Predicate.evaluate_rows``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self._batch is None:
            return self.predicate.evaluate_rows(x, attribute_index)
        return self._batch(x, attribute_index)


# ----------------------------------------------------------------------
# Lowering: one generated source, a scalar and a batch function
# ----------------------------------------------------------------------
def _scalar_expression(predicate: Predicate, names: Mapping[str, str]) -> str:
    if isinstance(predicate, Comparison):
        local = names[predicate.variable]
        if predicate.op == "!=":
            # NaN-safe inequality: NaN compares False on both sides.
            return (
                f"({local} < {predicate.value!r}"
                f" or {local} > {predicate.value!r})"
            )
        return f"{local} {predicate.op} {predicate.value!r}"
    if isinstance(predicate, (And, Or)):
        if not predicate.children:
            return "True" if isinstance(predicate, And) else "False"
        joiner = " and " if isinstance(predicate, And) else " or "
        return joiner.join(
            f"({_scalar_expression(child, names)})"
            for child in predicate.children
        )
    if isinstance(predicate, TruePredicate):
        return "True"
    if isinstance(predicate, FalsePredicate):
        return "False"
    raise _Unsupported(
        f"{type(predicate).__name__} is outside the core algebra"
    )


def _batch_statements(
    predicate: Predicate, columns: Mapping[str, str]
) -> tuple[list[str], str]:
    """Statements computing ``predicate`` over column locals.

    Returns the statements and the local holding the result.  Each
    distinct leaf expression -- an atom ``(variable, op, value)`` or a
    constant -- is computed once, whatever its number of occurrences;
    a connective accumulates into a fresh local of its own, so a
    shared leaf is never written in place.
    """
    leaves: dict[str, str] = {}
    lines: list[str] = []

    def leaf(expression: str) -> str:
        local = leaves.get(expression)
        if local is None:
            local = leaves[expression] = f"a{len(leaves)}"
            lines.append(f"{local} = {expression}")
        return local

    def lower(node: Predicate) -> str:
        if isinstance(node, Comparison):
            column, value = columns[node.variable], repr(node.value)
            if node.op == "!=":
                return leaf(f"~_isnan({column}) & ({column} != {value})")
            return leaf(f"{column} {node.op} {value}")
        if isinstance(node, (And, Or)):
            symbol = "&" if isinstance(node, And) else "|"
            children = [lower(child) for child in node.children]
            if not children:
                return lower(TruePredicate() if symbol == "&" else FalsePredicate())
            if len(children) == 1:
                return children[0]
            local = f"t{len(lines)}"
            lines.append(f"{local} = {children[0]} {symbol} {children[1]}")
            lines.extend(f"{local} {symbol}= {child}" for child in children[2:])
            return local
        if isinstance(node, TruePredicate):
            return leaf("_ones(n, dtype=bool)")
        if isinstance(node, FalsePredicate):
            return leaf("_zeros(n, dtype=bool)")
        raise _Unsupported(
            f"{type(node).__name__} is outside the core algebra"
        )

    return lines, lower(predicate)


def _missing(n: int) -> np.ndarray:
    return np.full(n, _NAN)


def _lower(
    predicate: Predicate,
) -> tuple[
    Callable[[Mapping[str, object]], bool],
    Callable[[np.ndarray, Mapping[str, int]], np.ndarray],
    str,
]:
    """Generate and compile the scalar and batch evaluators at once.

    The scalar ``_detector(state)`` reads each variable once through
    :func:`~repro.runtime.pack.state_value`.  The batch
    ``_batch(x, index)`` reads each variable's column once (an
    all-NaN column when ``index`` lacks it, which every comparison
    answers ``False``, as ``Comparison.evaluate_rows`` answers a
    missing variable) and enters ``np.errstate`` once per call.
    """
    variables = sorted(predicate.variables())
    scalars = {variable: f"v{i}" for i, variable in enumerate(variables)}
    columns = {variable: f"c{i}" for i, variable in enumerate(variables)}
    reads = "".join(
        f"    {scalars[variable]} = _value(state, {variable!r})\n"
        for variable in variables
    )
    scalar = _scalar_expression(predicate, scalars)
    statements, result = _batch_statements(predicate, columns)
    column_reads = "".join(
        f"    {columns[variable]} = x[:, index[{variable!r}]]"
        f" if {variable!r} in index else _missing(n)\n"
        for variable in variables
    )
    body = "".join(f"        {line}\n" for line in statements)
    source = (
        "def _detector(state, _value=_value):\n"
        f"{reads}"
        f"    return bool({scalar})\n"
        "\n"
        "def _batch(x, index):\n"
        "    n = len(x)\n"
        f"{column_reads}"
        "    with _errstate(invalid='ignore'):\n"
        f"{body}"
        f"        return {result}\n"
    )
    namespace: dict[str, object] = {
        "_value": state_value,
        "_errstate": np.errstate,
        "_isnan": np.isnan,
        "_ones": np.ones,
        "_zeros": np.zeros,
        "_missing": _missing,
    }
    exec(compile(source, "<repro.runtime.compile>", "exec"), namespace)
    return namespace["_detector"], namespace["_batch"], source  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Correctness self-check
# ----------------------------------------------------------------------
def _battery(predicate: Predicate) -> list[dict[str, object]]:
    """Deterministic states probing every threshold, NaN and absence."""
    thresholds: dict[str, set[float]] = {v: set() for v in predicate.variables()}

    def collect(node: Predicate) -> None:
        if isinstance(node, Comparison):
            thresholds.setdefault(node.variable, set()).add(node.value)
        elif isinstance(node, (And, Or)):
            for child in node.children:
                collect(child)

    collect(predicate)
    candidates: dict[str, list[float]] = {}
    for variable, values in thresholds.items():
        pool = {0.0}
        for value in values:
            pool.update((value - 1.0, value, value + 1.0))
        candidates[variable] = sorted(pool) + [_NAN]
    variables = sorted(candidates)
    states: list[dict[str, object]] = [{}, {v: _NAN for v in variables}]
    if variables:
        # Exhaust small cross-products; sample larger ones determin-
        # istically (missing-variable states included via the final
        # candidate slot).
        pools = [candidates[v] + [None] for v in variables]
        if math.prod(len(pool) for pool in pools) > 256:
            # One vectorised draw: the same values, in the same order,
            # as one ``rng.integers(len(pool))`` call per cell.
            draws = np.random.default_rng(0).integers(
                0, [len(pool) for pool in pools], size=(256, len(pools))
            )
            combos = (map(getitem, pools, row) for row in draws.tolist())
        else:
            combos = itertools.product(*pools)
        states.extend(
            {
                variable: value
                for variable, value in zip(variables, combo)
                if value is not None
            }
            for combo in combos
        )
    return states


def _self_check(
    predicate: Predicate,
    scalar: Callable[[Mapping[str, object]], bool],
    batch: Callable[[np.ndarray, Mapping[str, int]], np.ndarray],
) -> str | None:
    """Compare lowered evaluators with the interpreted path.

    Returns None when bit-identical over the battery, else a reason.
    """
    states = _battery(predicate)
    expected = [bool(predicate.evaluate(state)) for state in states]
    for state, want in zip(states, expected):
        if bool(scalar(state)) != want:
            return f"scalar lowering disagrees on {state!r}"
    index = build_index(predicate.variables())
    x = pack_states(states, index)
    interpreted = predicate.evaluate_rows(x, index).astype(bool)
    compiled = np.asarray(batch(x, index), dtype=bool)
    if not np.array_equal(interpreted, compiled):
        return "batch lowering disagrees with evaluate_rows"
    # The packed-array path must also agree with the dict path: NaN
    # packing stands in for missing variables.
    if interpreted.tolist() != expected:
        return "row semantics disagree with dict semantics"
    empty = np.asarray(batch(x, {}), dtype=bool)
    if not np.array_equal(
        empty, predicate.evaluate_rows(x, {}).astype(bool)
    ):
        return "unknown-variable semantics disagree"
    return None


def _interpreted(predicate: Predicate, reason: str) -> CompiledPredicate:
    return CompiledPredicate(
        predicate=predicate,
        mode="interpreted",
        source=None,
        _scalar=predicate.evaluate,
        _batch=None,
        fallback_reason=reason,
    )


def compile_predicate(
    predicate: Predicate, *, check: bool = True, simplify: bool = True
) -> CompiledPredicate:
    """Lower ``predicate`` for serving.

    With ``simplify=True`` (the default) the static simplifier runs
    first and the canonical equivalent form is what gets lowered --
    fewer atoms, and often fewer variables to pack.  With
    ``check=True`` (the default) the lowered evaluators are verified
    bit-identical to the **original** interpreted predicate over a
    threshold/NaN/missing battery before being trusted; any
    disagreement -- or any atom outside the core algebra -- degrades
    to interpreted evaluation rather than failing.
    """
    lowered = predicate
    if simplify:
        try:
            lowered = simplify_predicate(predicate).simplified
        except Exception:
            lowered = predicate  # never let analysis break serving
    try:
        scalar, batch, source = _lower(lowered)
    except _Unsupported as exc:
        if lowered is not predicate:
            # The simplifier may have exposed an opaque atom it kept
            # verbatim; the original may still fail the same way.
            return compile_predicate(predicate, check=check, simplify=False)
        return _interpreted(predicate, str(exc))
    if check:
        reason = _self_check(predicate, scalar, batch)
        if reason is not None:
            if lowered is not predicate:
                return compile_predicate(predicate, check=check, simplify=False)
            return _interpreted(predicate, f"self-check failed: {reason}")
    return CompiledPredicate(
        predicate=predicate,
        mode="compiled",
        source=source,
        _scalar=scalar,
        _batch=batch,
        fallback_reason=None,
        lowered=lowered,
    )
