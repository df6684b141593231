"""State packing: module state dicts -> instance arrays.

The serving engine evaluates detectors over micro-batches, so incoming
states (the dicts a :class:`~repro.injection.instrument.Probe` samples)
must be packed into the ``(n, d)`` float arrays the vectorised
predicate path consumes.  Packing fixes the missing/NaN convention in
one place:

* a variable absent from a state packs as NaN;
* a present value packs as :func:`repro.core.predicate.read_number`
  reads it, the rule the interpreter reads by too: booleans as
  0.0/1.0, an int beyond the float range as ±inf by its sign,
  non-numeric values (``None``, unparseable strings) as NaN;
* every NaN cell holds the one canonical NaN, whatever payload the
  state's own NaN carried.

Every comparison on NaN evaluates to ``False`` in both the compiled
and interpreted paths, so NaN-as-missing keeps the predicate algebra's
"a detector cannot flag what it cannot read" semantics.

Packing reads one column at a time: one ``state.get`` per state, then
one NumPy conversion of the column when each value is exactly a
``float``, ``int``, ``bool`` or ``None`` (absent reads as ``None``) --
types NumPy converts exactly as :func:`state_value` does.  Otherwise,
or when that conversion raises (an int beyond the float range), the
column goes through :func:`state_value` cell by cell.  Only the cells
that read as a number are written, so every NaN cell keeps the array's
canonical NaN and the bytes equal a per-cell :func:`state_value` loop.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.core.predicate import read_number

__all__ = ["build_index", "pack_states", "state_value"]

_NAN = float("nan")
#: Cell types NumPy converts exactly as :func:`state_value` does.
_NATIVE = frozenset((float, int, bool, type(None)))


def state_value(state: Mapping[str, object], variable: str) -> float:
    """Read one variable as a float, NaN when missing or non-numeric.

    This is the scalar twin of :func:`pack_states`, reading by
    :func:`repro.core.predicate.read_number` as the interpreter does:
    the generated scalar closures evaluate comparisons against exactly
    this value, so the dict-state, generated-source and instance-array
    paths stay bit-identical.
    """
    raw = state.get(variable, _NAN)
    # An exact float (absence included) is the common case: no call.
    return raw if type(raw) is float else read_number(raw)


def build_index(variables: Iterable[str]) -> dict[str, int]:
    """Deterministic variable -> column mapping (sorted by name)."""
    return {name: i for i, name in enumerate(sorted(set(variables)))}


def _column(states: Sequence[Mapping[str, object]], variable: str) -> np.ndarray:
    """The values of ``variable`` in ``states``, as :func:`state_value` reads them."""
    cells = [state.get(variable) for state in states]
    if _NATIVE.issuperset(map(type, cells)):
        try:
            return np.fromiter(cells, dtype=np.float64, count=len(cells))
        except OverflowError:
            pass
    return np.array([state_value(state, variable) for state in states], dtype=np.float64)


def pack_states(
    states: Sequence[Mapping[str, object]],
    attribute_index: Mapping[str, int],
) -> np.ndarray:
    """Pack state dicts into an ``(n, d)`` float64 instance array."""
    width = (max(attribute_index.values()) + 1) if attribute_index else 0
    x = np.full((len(states), width), _NAN, dtype=np.float64)
    for variable, column in attribute_index.items():
        values = _column(states, variable)
        # A read NaN keeps no payload, and a variable sharing a column
        # never overwrites a number with NaN: only numbers are written.
        np.copyto(x[:, column], values, where=~np.isnan(values))
    return x
