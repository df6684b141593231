"""Tabular dataset model for the data mining substrate.

This is the reproduction's analogue of Weka's ``Instances``: a dataset
is a matrix of attribute values plus a nominal class attribute, with a
weight per instance.  Instance weights matter because C4.5 uses them
both for cost-sensitive learning (Ting's instance weighting, Section IV
of the paper) and internally for fractional missing-value handling.

Numeric attributes are stored as ``float64``.  Nominal attributes are
stored as the ``float64`` index of the value within the attribute's
value tuple (``NaN`` marks a missing value for either kind).  This keeps
the whole dataset in one NumPy array, which the decision-tree induction
relies on for speed.

Datasets also carry a lazily computed **presort cache**
(:meth:`Dataset.presort`): one stable sort order per numeric column,
restricted to the rows where the value is known.  C4.5 induction seeds
its index-based growth from this cache instead of re-sorting every
column at every node.  Two row operations *derive* the cache instead
of recomputing it: an order-preserving :meth:`subset` (a
cross-validation training fold) filters the parent's orders, and a
label- or weight-only :meth:`replace` shares the cache outright (sort
order depends on ``x`` alone).  Any other new dataset, a resampled
:meth:`concat` included, sorts on first use.  See
``docs/mining-performance.md``.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["Attribute", "Dataset", "DatasetError"]


class DatasetError(ValueError):
    """Raised for malformed datasets or inconsistent dataset operations."""


NUMERIC = "numeric"
NOMINAL = "nominal"


@dataclasses.dataclass(frozen=True)
class Attribute:
    """Schema for a single dataset column.

    Parameters
    ----------
    name:
        Column name; unique within a dataset.
    kind:
        Either ``"numeric"`` or ``"nominal"``.
    values:
        For nominal attributes, the ordered tuple of admissible string
        values.  Must be empty for numeric attributes.
    """

    name: str
    kind: str = NUMERIC
    values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, NOMINAL):
            raise DatasetError(f"unknown attribute kind {self.kind!r}")
        if self.kind == NOMINAL and not self.values:
            raise DatasetError(f"nominal attribute {self.name!r} needs values")
        if self.kind == NUMERIC and self.values:
            raise DatasetError(f"numeric attribute {self.name!r} cannot have values")
        if len(set(self.values)) != len(self.values):
            raise DatasetError(f"attribute {self.name!r} has duplicate values")

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC

    @property
    def is_nominal(self) -> bool:
        return self.kind == NOMINAL

    def index_of(self, value: str) -> int:
        """Return the index of a nominal value, raising on unknown values."""
        if self.is_numeric:
            raise DatasetError(f"attribute {self.name!r} is numeric")
        try:
            return self.values.index(value)
        except ValueError:
            raise DatasetError(
                f"value {value!r} not in domain of attribute {self.name!r}"
            ) from None

    def value_of(self, index: int) -> str:
        """Return the nominal value string at ``index``."""
        if self.is_numeric:
            raise DatasetError(f"attribute {self.name!r} is numeric")
        return self.values[int(index)]

    @classmethod
    def numeric(cls, name: str) -> "Attribute":
        return cls(name, NUMERIC)

    @classmethod
    def nominal(cls, name: str, values: Iterable[str]) -> "Attribute":
        return cls(name, NOMINAL, tuple(values))


class Dataset:
    """A weighted tabular dataset with a nominal class attribute.

    Parameters
    ----------
    attributes:
        Input attribute schemas, one per column of ``x``.
    class_attribute:
        Nominal attribute describing the class labels in ``y``.
    x:
        2-D array-like of shape ``(n, len(attributes))``.  Nominal
        columns hold value indices; ``NaN`` is a missing value.
    y:
        1-D array-like of ``n`` class indices.
    weights:
        Optional per-instance weights (default: all ones).
    name:
        Human-readable relation name (used by the ARFF writer).
    """

    def __init__(
        self,
        attributes: Sequence[Attribute],
        class_attribute: Attribute,
        x: np.ndarray,
        y: np.ndarray,
        weights: np.ndarray | None = None,
        name: str = "dataset",
    ) -> None:
        if not class_attribute.is_nominal:
            raise DatasetError("class attribute must be nominal")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise DatasetError("duplicate attribute names")
        if class_attribute.name in names:
            raise DatasetError("class attribute name collides with an input attribute")

        self.attributes: tuple[Attribute, ...] = tuple(attributes)
        self.class_attribute = class_attribute
        self.x = np.asarray(x, dtype=np.float64)
        if self.x.ndim != 2:
            self.x = self.x.reshape(len(y), len(self.attributes))
        self.y = np.asarray(y, dtype=np.int64)
        if self.x.shape != (len(self.y), len(self.attributes)):
            raise DatasetError(
                f"x has shape {self.x.shape}, expected "
                f"({len(self.y)}, {len(self.attributes)})"
            )
        if np.any(self.y < 0) or np.any(self.y >= len(class_attribute.values)):
            raise DatasetError("class index out of range")
        if weights is None:
            self.weights = np.ones(len(self.y), dtype=np.float64)
        else:
            self.weights = np.asarray(weights, dtype=np.float64)
            if self.weights.shape != self.y.shape:
                raise DatasetError("weights must be one per instance")
            if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
                raise DatasetError("weights must be finite and non-negative")
        for j, attribute in enumerate(self.attributes):
            if attribute.is_nominal:
                column = self.x[:, j]
                valid = column[~np.isnan(column)]
                if valid.size and (
                    np.any(valid < 0) or np.any(valid >= len(attribute.values))
                ):
                    raise DatasetError(
                        f"nominal column {attribute.name!r} has out-of-range indices"
                    )
        self.name = name
        self._attribute_index = {a.name: i for i, a in enumerate(self.attributes)}
        # Lazily computed per-column stable sort orders (see presort()).
        self._presort: dict[int, tuple[np.ndarray, np.ndarray]] | None = None

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.y)

    def __repr__(self) -> str:
        return (
            f"Dataset({self.name!r}, n={len(self)}, "
            f"attributes={len(self.attributes)}, "
            f"classes={self.class_attribute.values})"
        )

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def n_classes(self) -> int:
        return len(self.class_attribute.values)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def attribute_index(self, name: str) -> int:
        """Return the column index of the attribute called ``name``."""
        try:
            return self._attribute_index[name]
        except KeyError:
            raise DatasetError(f"no attribute named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        """Return the raw column for attribute ``name``."""
        return self.x[:, self.attribute_index(name)]

    def class_counts(self) -> np.ndarray:
        """Return the unweighted instance count per class."""
        return np.bincount(self.y, minlength=self.n_classes).astype(np.int64)

    def class_weights(self) -> np.ndarray:
        """Return the total instance weight per class."""
        return np.bincount(
            self.y, weights=self.weights, minlength=self.n_classes
        ).astype(np.float64)

    def class_distribution(self) -> np.ndarray:
        """Return the weighted class distribution (sums to 1 when non-empty)."""
        counts = self.class_weights()
        total = counts.sum()
        if total <= 0:
            return counts
        return counts / total

    def majority_class(self) -> int:
        """Return the class index with the greatest total weight."""
        if len(self) == 0:
            raise DatasetError("empty dataset has no majority class")
        return int(np.argmax(self.class_weights()))

    # ------------------------------------------------------------------
    # Presort cache
    # ------------------------------------------------------------------
    def presort(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per-numeric-column stable sort orders over the known values.

        Returns a mapping ``{column index: (positions, values)}`` where
        ``positions`` holds the row indices whose value in that column
        is known (non-NaN), ordered by ``(value, row index)``, and
        ``values`` is the column at those positions (ascending).  The
        result is cached on the dataset and must not be mutated; the
        arrays depend only on ``x``, so mutating ``x`` in place after
        calling this leaves a stale cache (the pipeline never does --
        every transformation goes through :meth:`replace`).
        """
        if self._presort is None:
            orders: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for j, attribute in enumerate(self.attributes):
                if not attribute.is_numeric:
                    continue
                column = self.x[:, j]
                # Stable argsort puts NaNs (missing) last; trim them so
                # positions cover exactly the known rows.
                order = np.argsort(column, kind="stable")
                n_known = len(column) - int(np.count_nonzero(np.isnan(column)))
                positions = order[:n_known]
                orders[j] = (positions, column[positions])
            self._presort = orders
        return self._presort

    # The pickle payload drops the cache: it is pure derived state, and
    # orchestration workers ship datasets by value where the extra
    # arrays would double the transfer for no benefit.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_presort"] = None
        return state

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        attributes: Sequence[Attribute],
        class_attribute: Attribute,
        records: Iterable[Sequence[object]],
        labels: Iterable[str | int],
        weights: Iterable[float] | None = None,
        name: str = "dataset",
    ) -> "Dataset":
        """Build a dataset from human-readable rows.

        ``records`` holds one row per instance with values matching the
        attribute kinds: numbers for numeric attributes, value strings
        (or indices) for nominal ones, ``None`` for missing.  ``labels``
        holds the class value per instance (string or index).
        """
        attributes = tuple(attributes)
        rows = []
        for record in records:
            record = list(record)
            if len(record) != len(attributes):
                raise DatasetError(
                    f"record has {len(record)} values, expected {len(attributes)}"
                )
            row = []
            for value, attribute in zip(record, attributes):
                row.append(_encode_value(value, attribute))
            rows.append(row)
        y = [_encode_label(label, class_attribute) for label in labels]
        if len(y) != len(rows):
            raise DatasetError("records and labels differ in length")
        x = (
            np.asarray(rows, dtype=np.float64)
            if rows
            else np.empty((0, len(attributes)))
        )
        w = None if weights is None else np.asarray(list(weights), dtype=np.float64)
        return cls(attributes, class_attribute, x, np.asarray(y), w, name=name)

    def replace(
        self,
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        attributes: Sequence[Attribute] | None = None,
        name: str | None = None,
    ) -> "Dataset":
        """Return a copy with any of the underlying arrays replaced."""
        out = Dataset(
            self.attributes if attributes is None else attributes,
            self.class_attribute,
            self.x if x is None else x,
            self.y if y is None else y,
            self.weights if weights is None else weights,
            name=self.name if name is None else name,
        )
        # Sort orders depend only on x: label/weight/name replacements
        # share the cache outright.
        if x is None and attributes is None:
            out._presort = self._presort
        return out

    def copy(self) -> "Dataset":
        return self.replace(
            x=self.x.copy(), y=self.y.copy(), weights=self.weights.copy()
        )

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Return the sub-dataset selected by an index or boolean array.

        When this dataset's presort cache is already computed and the
        selection preserves row order (a boolean mask or strictly
        ascending indices), the subset's cache is *derived* by
        filtering the parent's sort orders -- O(n) per column instead
        of a fresh O(n log n) sort.
        """
        indices = np.asarray(indices)
        out = self.replace(
            x=self.x[indices], y=self.y[indices], weights=self.weights[indices]
        )
        if self._presort is not None:
            if indices.dtype == bool:
                selected = np.flatnonzero(indices)
            else:
                selected = indices
            if selected.ndim == 1 and (
                selected.size == 0 or np.all(np.diff(selected) > 0)
            ):
                remap = np.full(len(self), -1, dtype=np.int64)
                remap[selected] = np.arange(selected.size, dtype=np.int64)
                derived: dict[int, tuple[np.ndarray, np.ndarray]] = {}
                for j, (positions, values) in self._presort.items():
                    mapped = remap[positions]
                    keep = mapped >= 0
                    derived[j] = (mapped[keep], values[keep])
                out._presort = derived
        return out

    def concat(self, other: "Dataset") -> "Dataset":
        """Return the row-wise concatenation of two schema-compatible datasets."""
        if (
            other.attributes != self.attributes
            or other.class_attribute != self.class_attribute
        ):
            raise DatasetError("cannot concatenate datasets with different schemas")
        return self.replace(
            x=np.vstack([self.x, other.x]),
            y=np.concatenate([self.y, other.y]),
            weights=np.concatenate([self.weights, other.weights]),
        )

    def shuffled(self, rng: np.random.Generator) -> "Dataset":
        """Return a row-shuffled copy."""
        order = rng.permutation(len(self))
        return self.subset(order)

    def with_weights(self, weights: np.ndarray) -> "Dataset":
        return self.replace(weights=np.asarray(weights, dtype=np.float64))

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def describe(self) -> list[dict[str, object]]:
        """Per-attribute summary statistics (for reports and sanity
        checks of injection data): numeric columns get min/max/mean and
        the missing fraction; nominal columns get value counts."""
        out: list[dict[str, object]] = []
        for j, attribute in enumerate(self.attributes):
            column = self.x[:, j]
            missing = float(np.isnan(column).mean()) if len(self) else 0.0
            entry: dict[str, object] = {
                "name": attribute.name,
                "kind": attribute.kind,
                "missing": missing,
            }
            known = column[~np.isnan(column)]
            if attribute.is_numeric:
                if known.size:
                    entry["min"] = float(known.min())
                    entry["max"] = float(known.max())
                    finite = known[np.isfinite(known)]
                    entry["mean"] = (
                        float(finite.mean()) if finite.size else math.nan
                    )
                else:
                    entry["min"] = entry["max"] = entry["mean"] = math.nan
            else:
                counts = np.bincount(
                    known.astype(np.int64), minlength=len(attribute.values)
                )
                entry["counts"] = {
                    value: int(count)
                    for value, count in zip(attribute.values, counts)
                }
            out.append(entry)
        return out

    # ------------------------------------------------------------------
    # Row decoding (for display / export)
    # ------------------------------------------------------------------
    def decode_row(self, i: int) -> list[object]:
        """Return row ``i`` with nominal indices replaced by their strings."""
        row: list[object] = []
        for j, attribute in enumerate(self.attributes):
            value = self.x[i, j]
            if math.isnan(value):
                row.append(None)
            elif attribute.is_nominal:
                row.append(attribute.value_of(int(value)))
            else:
                row.append(float(value))
        return row

    def decode_label(self, i: int) -> str:
        return self.class_attribute.value_of(int(self.y[i]))


def _encode_value(value: object, attribute: Attribute) -> float:
    if value is None:
        return math.nan
    if attribute.is_numeric:
        encoded = float(value)  # type: ignore[arg-type]
        if math.isnan(encoded):
            return math.nan
        return encoded
    if isinstance(value, str):
        return float(attribute.index_of(value))
    index = int(value)  # type: ignore[call-overload]
    if not 0 <= index < len(attribute.values):
        raise DatasetError(
            f"index {index} out of range for nominal attribute {attribute.name!r}"
        )
    return float(index)


def _encode_label(label: object, class_attribute: Attribute) -> int:
    if isinstance(label, str):
        return class_attribute.index_of(label)
    index = int(label)  # type: ignore[call-overload]
    if not 0 <= index < len(class_attribute.values):
        raise DatasetError(f"class index {index} out of range")
    return index
