"""Content-addressed reuse caches for the mining data plane.

Step 4's refinement grid re-derives near-identical intermediate
artefacts hundreds of times: the same training fold feeds 15 SMOTE
levels and 15 neighbour counts, and every plan re-partitions the same
class vector into the same stratified folds.  The caches here memoise
those artefacts keyed by **content fingerprints** (the same
sha256-prefix convention as :func:`repro.orchestration.tasks.fingerprint_of`),
so reuse is driven by what the data *is*, never by where it came from
-- store/resume and parallel-schedule semantics are untouched because
a cache hit returns exactly the bytes a recompute would.

Caches are process-local, bounded (LRU), and registered globally so
benchmarks can measure the cold path honestly via
:func:`clear_reuse_caches`.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from repro import observability as obs

__all__ = [
    "ContentCache",
    "array_fingerprint",
    "clear_reuse_caches",
    "reuse_caches_disabled",
]

_REGISTRY: list["ContentCache"] = []
_REGISTRY_LOCK = threading.Lock()
_DISABLED = False


@contextlib.contextmanager
def reuse_caches_disabled():
    """Disable every reuse cache for the duration of the block.

    While active, :meth:`ContentCache.get` always misses and
    :meth:`ContentCache.put` stores nothing.  Results are bit-identical
    either way; only the work is repeated.
    """
    global _DISABLED
    previous = _DISABLED
    _DISABLED = True
    try:
        yield
    finally:
        _DISABLED = previous


def array_fingerprint(*arrays: np.ndarray) -> str:
    """Fingerprint one or more arrays by dtype, shape, and raw bytes.

    Two arrays with equal fingerprints are bit-identical (modulo sha256
    collisions), so anything deterministically derived from one can be
    reused for the other.  NaNs compare by payload bytes, which is the
    conservative direction for cache keys.
    """
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


class ContentCache:
    """A small, thread-safe LRU cache keyed by content fingerprints.

    Values must be treated as immutable by callers: a hit hands back
    the stored object itself, so mutating it would poison later reuse.
    """

    def __init__(self, maxsize: int = 8, name: str = "") -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        with _REGISTRY_LOCK:
            _REGISTRY.append(self)

    def get(self, key: Any) -> Any | None:
        if _DISABLED:
            return None
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                if obs.enabled():
                    obs.count(f"cache.{self.name or 'anon'}.hits")
                return self._entries[key]
            self.misses += 1
            if obs.enabled():
                obs.count(f"cache.{self.name or 'anon'}.misses")
            return None

    def put(self, key: Any, value: Any) -> None:
        if _DISABLED:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def clear_reuse_caches() -> None:
    """Empty every registered cache (benchmark cold-path control)."""
    with _REGISTRY_LOCK:
        caches = list(_REGISTRY)
    for cache in caches:
        cache.clear()
