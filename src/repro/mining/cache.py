"""Process-local reuse caches keyed by content.

A :class:`ContentCache` memoises an artefact under a key that says
what its inputs *are*, never where they came from, so a hit returns
exactly what a recompute would and store/resume and parallel-schedule
semantics are untouched.  Three memos use it: the fault-free runs of
:data:`repro.injection.golden.GOLDEN_CACHE` (keyed by target
fingerprint and test case), the normalised sources of
:func:`repro.targets.base.normalized_source` (keyed by source text),
and 7-Zip's codec calls in :mod:`repro.targets.sevenzip.archiver`
(keyed by every input the codec reads).

Caches are bounded (LRU) and registered globally, so a benchmark can
measure the cold path honestly via :func:`clear_reuse_caches`, and
:func:`reuse_caches_disabled` makes every one of them miss.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import Any

from repro import observability as obs

__all__ = [
    "ContentCache",
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
