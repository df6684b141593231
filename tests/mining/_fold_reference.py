"""Round-robin stratified fold dealing: the reference fold partition.

:func:`repro.mining.crossval.stratified_folds` deals each class's
shuffled members to the folds with one array assignment.  This module
keeps the element-by-element loop it replaced, so a test can compare
the two partitions, and the generator state each leaves, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.mining.dataset import Dataset


def round_robin_folds(
    dataset: Dataset, k: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Deal every class's permuted members to folds one at a time,
    continuing where the previous class stopped."""
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in range(dataset.n_classes):
        members = np.flatnonzero(dataset.y == cls)
        members = members[rng.permutation(len(members))]
        for i, index in enumerate(members):
            folds[(offset + i) % k].append(int(index))
        offset += len(members)
    return [np.array(sorted(fold), dtype=np.int64) for fold in folds]
