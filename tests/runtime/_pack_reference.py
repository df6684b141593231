"""The per-cell packing loop, kept as the oracle for ``pack_states``.

``repro.runtime.pack.pack_states`` converts whole columns at a time;
this is the loop it replaced, one :func:`state_value` call per cell.
Both must produce the same bytes, NaN payloads included.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.runtime.pack import state_value


def pack_states_reference(
    states: Sequence[Mapping[str, object]],
    attribute_index: Mapping[str, int],
) -> np.ndarray:
    width = (max(attribute_index.values()) + 1) if attribute_index else 0
    x = np.full((len(states), width), math.nan, dtype=np.float64)
    for row, state in enumerate(states):
        for variable, column in attribute_index.items():
            value = state_value(state, variable)
            if not math.isnan(value):
                x[row, column] = value
    return x
