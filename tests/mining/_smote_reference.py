"""Per-seed SMOTE neighbour queries: the reference neighbour path.

:func:`repro.mining.sampling.smote` takes every seed's neighbours from
one table built at the refinement grid's largest k and slices it
(:meth:`repro.mining.knn.NearestNeighbours.neighbour_table`, reused
across plans through a content cache).  This module builds the table
the way the seed implementation queried it: one
:meth:`~repro.mining.knn.NearestNeighbours.neighbours` call per seed,
at exactly ``k``, excluding the seed itself.  :func:`per_seed_neighbours`
swaps that builder in for the duration of a block, so a test or a
benchmark can run the whole data plane on the reference path and
compare the results bit for bit.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.mining import sampling
from repro.mining.dataset import Dataset
from repro.mining.knn import NearestNeighbours


def per_seed_neighbour_table(minority: Dataset, k: int) -> list[np.ndarray]:
    """Each minority seed's ``k`` nearest minority neighbours, queried
    seed by seed."""
    index = NearestNeighbours(minority)
    return [
        index.neighbours(minority.x[i], k, exclude=i) for i in range(len(minority))
    ]


@contextlib.contextmanager
def per_seed_neighbours():
    """Run :func:`~repro.mining.sampling.smote` on per-seed neighbour
    queries inside the block."""
    built = sampling._minority_neighbour_table
    sampling._minority_neighbour_table = per_seed_neighbour_table
    try:
        yield
    finally:
        sampling._minority_neighbour_table = built
