"""Class-imbalance treatments: undersampling, oversampling, SMOTE.

Fault injection datasets are heavily imbalanced -- most sampled states
do not lead to failure -- so Step 2 of the methodology rebalances the
training data before induction.  Section IV / V-C of the paper describe
three treatments, all implemented here:

* **random undersampling** of the majority class (sampling *without*
  replacement), parameterised by the percentage of majority instances
  *retained*; the paper sweeps 10 levels over [5, 100]%.
* **oversampling with replacement** of the minority class,
  parameterised by the percentage of synthetic minority instances
  *added* relative to the current minority count; the paper sweeps 15
  levels over [100, 1500]%.  This is the ``q = 0`` special case of
  SMOTE.
* **SMOTE**: each minority seed contributes ``r = level/100`` synthetic
  instances placed at ``s = t + q * (n - t)`` for a neighbour ``n``
  drawn (with replacement) from the seed's ``k`` nearest minority
  neighbours and ``q`` uniform on [0, 1].

All functions leave the input dataset untouched and return a new one.
Nominal attribute values of SMOTE-synthesised instances are copied from
the seed or the neighbour with equal probability (interpolating a value
index would be meaningless).
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.mining.dataset import Dataset
from repro.mining.knn import NearestNeighbours

__all__ = [
    "SamplingError",
    "undersample_majority",
    "oversample_minority",
    "smote",
    "apply_sampling",
]


class SamplingError(ValueError):
    """Raised for invalid sampling parameters or degenerate datasets."""


def _minority_neighbour_table(minority: Dataset, k: int) -> list[np.ndarray]:
    """Each minority seed's ``k`` nearest minority neighbours."""
    return NearestNeighbours(minority).neighbour_table(k)


def _split_by_class(dataset: Dataset, positive: int) -> tuple[np.ndarray, np.ndarray]:
    positive_idx = np.flatnonzero(dataset.y == positive)
    negative_idx = np.flatnonzero(dataset.y != positive)
    return positive_idx, negative_idx


def undersample_majority(
    dataset: Dataset,
    level: float,
    rng: np.random.Generator,
    positive: int = 1,
) -> Dataset:
    """Keep ``level`` percent of the majority (negative) class.

    ``level`` is a percentage in (0, 100]; sampling is without
    replacement, matching the paper's undersampling treatment.  The
    minority (positive) class is kept intact.
    """
    if not 0 < level <= 100:
        raise SamplingError(f"undersampling level must be in (0, 100], got {level}")
    positive_idx, negative_idx = _split_by_class(dataset, positive)
    keep = max(1, int(round(len(negative_idx) * level / 100.0)))
    keep = min(keep, len(negative_idx))
    kept_negative = rng.choice(negative_idx, size=keep, replace=False)
    selected = np.concatenate([positive_idx, kept_negative])
    return dataset.subset(rng.permutation(selected))


def oversample_minority(
    dataset: Dataset,
    level: float,
    rng: np.random.Generator,
    positive: int = 1,
) -> Dataset:
    """Add ``level`` percent synthetic copies of the minority class.

    Sampling is with replacement; ``level=300`` adds three copies of the
    minority class on average.  This is SMOTE with ``q = 0``.
    """
    if level <= 0:
        raise SamplingError(f"oversampling level must be positive, got {level}")
    positive_idx, _ = _split_by_class(dataset, positive)
    if len(positive_idx) == 0:
        raise SamplingError("cannot oversample: no minority instances")
    extra = int(round(len(positive_idx) * level / 100.0))
    if extra == 0:
        return dataset.copy()
    drawn = rng.choice(positive_idx, size=extra, replace=True)
    addition = dataset.subset(drawn)
    return dataset.concat(addition).shuffled(rng)


def smote(
    dataset: Dataset,
    level: float,
    k: int,
    rng: np.random.Generator,
    positive: int = 1,
) -> Dataset:
    """Synthetic Minority Over-sampling TEchnique (Chawla et al.).

    Each minority seed ``t`` contributes ``r = level / 100`` synthetic
    instances (the fractional remainder is realised stochastically):
    a neighbour ``n`` is drawn with replacement from ``t``'s ``k``
    nearest minority neighbours, and the synthetic instance is
    ``t + q * (n - t)`` with ``q`` uniform on [0, 1] for numeric
    attributes; nominal attributes take the seed's or neighbour's value
    with equal probability.
    """
    if level <= 0:
        raise SamplingError(f"SMOTE level must be positive, got {level}")
    if k < 1:
        raise SamplingError(f"SMOTE needs k >= 1, got {k}")
    positive_idx, _ = _split_by_class(dataset, positive)
    if len(positive_idx) == 0:
        raise SamplingError("cannot apply SMOTE: no minority instances")
    minority = dataset.subset(positive_idx)
    if len(minority) == 1:
        # A single seed has no neighbours to interpolate towards; fall
        # back to replication, the q=0 special case.
        return oversample_minority(dataset, level, rng, positive)

    table = _minority_neighbour_table(minority, k)
    numeric = np.array([a.is_numeric for a in dataset.attributes])
    nominal = ~numeric
    n_nominal = int(np.count_nonzero(nominal))
    r_whole, r_frac = divmod(level / 100.0, 1.0)

    synthetic_chunks = []
    n_synthetic = 0
    for i in range(len(minority)):
        r = int(r_whole) + (1 if rng.random() < r_frac else 0)
        if r == 0:
            continue
        neighbours = table[i]
        if len(neighbours) == 0:
            continue
        choices = rng.choice(neighbours, size=r, replace=True)
        seed = minority.x[i]
        others = minority.x[choices]
        # One seed's rows each consumed 1 + n_nominal uniforms in order
        # (the interpolation q, then the nominal coin vector), with no
        # other draw interleaved -- and Generator.random fills an array
        # from the very double stream repeated scalar calls consume, so
        # one batched draw replays the per-row sequence exactly.
        draws = rng.random(r * (1 + n_nominal)).reshape(r, 1 + n_nominal)
        q = draws[:, :1]
        block = np.repeat(seed[None, :], r, axis=0)
        block[:, numeric] = seed[numeric] + q * (others[:, numeric] - seed[numeric])
        if n_nominal:
            take_other = draws[:, 1:] < 0.5
            block[:, nominal] = np.where(take_other, others[:, nominal], seed[nominal])
        synthetic_chunks.append(block)
        n_synthetic += r

    if not synthetic_chunks:
        return dataset.copy()
    synthetic = Dataset(
        dataset.attributes,
        dataset.class_attribute,
        np.concatenate(synthetic_chunks, axis=0),
        np.full(n_synthetic, positive, dtype=np.int64),
        name=dataset.name,
    )
    return dataset.concat(synthetic).shuffled(rng)


def apply_sampling(
    dataset: Dataset,
    kind: str | None,
    level: float | None,
    k: int | None,
    rng: np.random.Generator,
    positive: int = 1,
) -> Dataset:
    """Dispatch a sampling configuration onto a dataset.

    ``kind`` is ``None`` (no resampling), ``"undersample"``,
    ``"oversample"`` (replacement) or ``"smote"``; this is the single
    entry point the Step-4 refinement grid drives.
    """
    if kind is None:
        return dataset
    if level is None:
        raise SamplingError(f"sampling kind {kind!r} requires a level")
    with obs.span("sampling.apply", kind=kind, level=level):
        if kind == "undersample":
            return undersample_majority(dataset, level, rng, positive)
        if kind == "oversample":
            return oversample_minority(dataset, level, rng, positive)
        if kind == "smote":
            if k is None:
                raise SamplingError("SMOTE requires a neighbour count k")
            return smote(dataset, level, k, rng, positive)
        raise SamplingError(f"unknown sampling kind {kind!r}")
