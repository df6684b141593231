"""Persistent content-addressed campaign-result store.

FastFlip (PAPERS.md) composes per-section error analysis incrementally:
after a program edit, only the modified section re-analyzes.  This
module is that idea applied to Step 1 of the methodology.  A
:class:`CampaignStore` persists campaign shard results keyed by a
*store key* that names everything determining the shard's records:

* the target module's **source closure fingerprint**
  (:meth:`repro.targets.base.TargetSystem.module_fingerprint`:
  AST-normalized sources of the code the module executes, plus the
  instance state shared across modules),
* the **failure specification fingerprint**
  (:meth:`~repro.targets.base.TargetSystem.failure_fingerprint`),
* the **probe sets** visible at the injection and sampling locations,
* the campaign **config slice** (module, locations, injection times,
  test cases -- but *not* the variable/bit selection: the shard's
  ``pairs`` carry those, so campaigns slicing the same space
  differently share shards),
* the shard's ``pairs`` (its cut of the canonical enumeration).

The fingerprint of that key is the shard's content address.  Editing
one target module changes only that module's source-closure
fingerprint, so every other module's shards keep their addresses and
load from the store -- ``Campaign.run(store=...)`` becomes a delta
operation, bit-identical to a fresh exhaustive run (the differential
contract proved by ``tests/injection/test_store.py``).

Invalidation bookkeeping: the key fields above split into *content*
fields (module/failure fingerprints, probes -- the parts an edit
changes) and *identity* fields (everything else).  The fingerprint of
the identity fields is the shard's **logical id**: the slice of
injection space it covers, stable across edits.  ``index.json`` maps
each logical id to its latest generation, so the store can tell a
*cold* miss (slice never ran) from an *invalidated* one (a superseded
generation exists) and ``gc()`` can drop stale generations.

The store is the one durable layer of the methodology: campaign
shards, Step 4 refinement trials (keyed by
:func:`repro.orchestration.grids.run_refinement`, with the mining
code's fingerprint as their content field) and, through
:func:`repro.experiments.datasets.generate_dataset`, the Table II
datasets all persist here.  Resuming a killed run is running it again
against the same store.

Layout (all writes atomic: temp file + ``os.replace``)::

    <root>/index.json            logical id -> latest fingerprint
    <root>/shards/<fp>.json      one shard's records + its full key

The store assumes a single writer at a time (the campaign process);
readers are safe concurrently because shard files are immutable once
written and the index is replaced atomically.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile

__all__ = [
    "CampaignStore",
    "StoreEligibilityWarning",
    "StoreEntry",
    "logical_id_of",
]

STORE_FORMAT = "repro.injection.store"
SHARD_FORMAT = "repro.injection.store.shard"
VERSION = 1

#: Key fields that change when a target module (or its failure spec)
#: is edited -- or, for refinement trials, the mining code.  The
#: remaining fields identify the slice itself -- its logical id --
#: stable across edits.
CONTENT_FIELDS = ("module_fingerprint", "failure_fingerprint", "probes", "code")


class StoreEligibilityWarning(RuntimeWarning):
    """A store was requested for a target that cannot fingerprint its
    module sources; the campaign proceeds without the store."""


def logical_id_of(key: dict) -> str:
    """Identity of the injection-space slice a key covers.

    Drops the content fields, so two generations of the same slice
    (before and after a module edit) share a logical id while their
    content addresses differ.
    """
    # Deferred: importing repro.orchestration at module scope would
    # close the cycle core.detector -> injection -> orchestration ->
    # runtime -> core.detector.
    from repro.orchestration.tasks import fingerprint_of

    return fingerprint_of(
        {k: v for k, v in key.items() if k not in CONTENT_FIELDS}
    )


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """Metadata of one stored shard (no records)."""

    fingerprint: str
    logical_id: str
    sequence: int
    target: str
    module: str
    pairs: int
    records: int
    stale: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class CampaignStore:
    """Content-addressed persistence for campaign shard results.

    ``counters`` tallies this instance's traffic: ``hits`` (shard
    loaded), ``misses`` (cold: no generation of the slice exists),
    ``invalidated`` (a *different* generation exists -- the slice's
    module was edited since it was stored) and ``writes`` (new shard
    files).  The three read counters are disjoint, so
    ``hits + misses + invalidated`` is the number of lookups.
    """

    def __init__(self, root: str | os.PathLike, hand_off: bool = True) -> None:
        self.root = pathlib.Path(root)
        self.counters = {"hits": 0, "misses": 0, "invalidated": 0, "writes": 0}
        #: The index, loaded on first use and kept current by ``put``.
        self._index: dict | None = None
        #: Whether ``_index`` holds puts that ``index.json`` lacks.
        self._dirty = False
        #: Records a dual campaign run computed for its sibling, by the
        #: sibling shard's content address: in memory only, taken (and
        #: only then put) when the sibling campaign runs against this
        #: instance (:mod:`repro.orchestration.campaigns`).  ``None``
        #: (``hand_off=False``) turns dual runs off: a caller that runs
        #: one campaign per instance would pay for records nobody takes.
        self.siblings: dict[str, list] | None = {} if hand_off else None

    # -- paths ---------------------------------------------------------
    @property
    def _shards_dir(self) -> pathlib.Path:
        return self.root / "shards"

    @property
    def _index_path(self) -> pathlib.Path:
        return self.root / "index.json"

    def shard_path(self, fingerprint: str) -> pathlib.Path:
        return self._shards_dir / f"{fingerprint}.json"

    # -- index ---------------------------------------------------------
    def _current_index(self) -> dict:
        if self._index is None:
            self._index = self._load_index()
        return self._index

    def _load_index(self) -> dict:
        """Read ``index.json`` and bring it up to date with the shards.

        Shard files the index does not list are stale generations or
        puts whose flush never happened (the writer died); reading just
        those recovers every newer generation.  A missing or corrupt
        index is the same case with nothing listed, i.e. a rebuild from
        every shard.  A recovered index is written back at once.
        """
        try:
            index = json.loads(self._index_path.read_text())
        except (OSError, json.JSONDecodeError):
            index = None
        recovered = not (
            isinstance(index, dict)
            and index.get("format") == STORE_FORMAT
            and isinstance(index.get("logical"), dict)
        )
        if recovered:
            index = {
                "format": STORE_FORMAT,
                "version": VERSION,
                "sequence": 0,
                "logical": {},
            }
        logical = index["logical"]
        listed = {entry.get("fingerprint") for entry in logical.values()}
        for payload in self._iter_shards(skip=listed):
            sequence = int(payload.get("sequence", 0))
            if sequence > int(index.get("sequence", 0)):
                index["sequence"] = sequence
                recovered = True
            lid = payload.get("logical")
            current = logical.get(lid)
            if current is None or sequence > current.get("sequence", 0):
                logical[lid] = {
                    "fingerprint": payload["fingerprint"],
                    "sequence": sequence,
                }
                recovered = True
        if recovered and self.root.exists():
            self._write_json(self._index_path, index)
        return index

    def _iter_shards(self, skip=()):
        try:
            names = sorted(os.listdir(self._shards_dir))
        except OSError:
            return
        for name in names:
            stem, suffix = os.path.splitext(name)
            if suffix != ".json" or stem in skip:
                continue
            payload = self._read_shard(stem)
            if payload is not None:
                yield payload

    def _read_shard(self, fingerprint: str) -> dict | None:
        """The shard file at ``fingerprint``, or ``None`` when it is
        absent or not a valid shard (e.g. torn by a killed writer)."""
        try:
            payload = json.loads(self.shard_path(fingerprint).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (
            isinstance(payload, dict)
            and payload.get("format") == SHARD_FORMAT
            and payload.get("fingerprint") == fingerprint
        ):
            return payload
        return None

    def _write_json(self, path: pathlib.Path, payload: dict) -> None:
        # One-shot ``json.dumps`` runs the C encoder; ``json.dump`` to a
        # file would run the pure-Python one for the same bytes.
        text = json.dumps(payload, separators=(",", ":"))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def flush(self) -> None:
        """Persist the in-memory index if puts changed it since it was
        last written.  ``TaskGraph.run`` calls this once per run."""
        if self._dirty:
            self._write_json(self._index_path, self._index)
            self._dirty = False

    # -- read/write ----------------------------------------------------
    def contains(self, fingerprint: str) -> bool:
        """Whether a valid shard with this content address exists (does
        not touch the counters -- it is the planner's peek, not a
        lookup).  A torn or corrupt file does not count."""
        return (
            self.shard_path(fingerprint).is_file()
            and self._read_shard(fingerprint) is not None
        )

    def latest(self, logical_id: str) -> str | None:
        """Fingerprint of the newest stored generation of a slice, or
        ``None`` when the slice never ran.  A shard that is absent but
        whose slice has a ``latest`` is *invalidated*, else *cold*."""
        entry = self._current_index()["logical"].get(logical_id)
        return None if entry is None else entry.get("fingerprint")

    def fetch(self, fingerprint: str, key: dict) -> list | None:
        """Records of the shard at ``fingerprint``, or ``None``.

        A miss consults :meth:`latest` to classify itself:
        ``invalidated`` when another generation of the same slice is
        stored (the module was edited), ``misses`` when the slice is
        cold.
        """
        payload = self._read_shard(fingerprint)
        if payload is not None:
            self.counters["hits"] += 1
            return payload["records"]
        latest = self.latest(logical_id_of(key))
        if latest is not None and latest != fingerprint:
            self.counters["invalidated"] += 1
        else:
            self.counters["misses"] += 1
        return None

    def put(self, fingerprint: str, key: dict, records: list) -> bool:
        """Store one shard's records under its content address.

        Idempotent: an existing valid shard is left untouched (content
        addressing makes overwrites meaningless); a torn or corrupt file
        at the address is replaced.  Returns whether a shard file was
        written.  Only the shard file is written;
        the index update stays in memory until :meth:`flush`, except
        that a store without ``index.json`` gets one at once.
        """
        if self.contains(fingerprint):
            return False
        index = self._current_index()
        sequence = int(index.get("sequence", 0)) + 1
        lid = logical_id_of(key)
        self._write_json(
            self.shard_path(fingerprint),
            {
                "format": SHARD_FORMAT,
                "version": VERSION,
                "fingerprint": fingerprint,
                "logical": lid,
                "sequence": sequence,
                "key": key,
                "records": records,
            },
        )
        index["sequence"] = sequence
        index["logical"][lid] = {
            "fingerprint": fingerprint,
            "sequence": sequence,
        }
        self._dirty = True
        if not self._index_path.exists():
            self.flush()
        self.counters["writes"] += 1
        return True

    # -- inspection / maintenance --------------------------------------
    def entries(self) -> list[StoreEntry]:
        """Metadata of every stored shard, stale generations included.

        Staleness comes from the shard files alone: a shard is stale
        when its slice has a shard with a higher sequence, whatever
        the index says.
        """
        payloads = list(self._iter_shards())
        newest: dict[str, tuple[int, str]] = {}
        for payload in payloads:
            lid = payload.get("logical")
            candidate = (int(payload.get("sequence", 0)), payload["fingerprint"])
            if lid not in newest or candidate[0] > newest[lid][0]:
                newest[lid] = candidate
        entries = []
        for payload in payloads:
            key = payload.get("key") or {}
            lid = payload.get("logical")
            entries.append(
                StoreEntry(
                    fingerprint=payload["fingerprint"],
                    logical_id=lid,
                    sequence=int(payload.get("sequence", 0)),
                    target=str(key.get("target", "?")),
                    module=str(key.get("config", {}).get("module", "?")),
                    pairs=len(payload.get("key", {}).get("pairs", ())),
                    records=len(payload.get("records", ())),
                    stale=newest[lid][1] != payload["fingerprint"],
                )
            )
        return entries

    def stale_entries(self) -> list[StoreEntry]:
        """Shards superseded by a newer generation of their slice."""
        return [entry for entry in self.entries() if entry.stale]

    def gc(self, dry_run: bool = False) -> list[str]:
        """Remove stale shard generations; returns their fingerprints.

        Live shards (each slice's latest generation) are never
        touched, so a delta run after ``gc()`` behaves identically.
        The temp files of writers killed mid-write are removed too
        (the store has a single writer, so none is in flight), and the
        index is brought up to date and flushed.
        """
        from repro import observability as obs
        from repro.observability import names

        with obs.span(names.STORE_GC, root=str(self.root)) as span:
            self._current_index()
            stale = self.stale_entries()
            if not dry_run:
                leftovers = [
                    *self.root.glob("index.json*.tmp"),
                    *self._shards_dir.glob("*.json*.tmp"),
                ]
                for path in leftovers + [
                    self.shard_path(entry.fingerprint) for entry in stale
                ]:
                    try:
                        path.unlink()
                    except OSError:
                        pass
            self.flush()
            span.count(names.COUNTER_STORE_STALE, len(stale))
        return [entry.fingerprint for entry in stale]

    def summary(self) -> dict:
        """One-shot inspection payload for ``repro store inspect``."""
        entries = self.entries()
        slices: dict[tuple[str, str], dict] = {}
        for entry in entries:
            row = slices.setdefault(
                (entry.target, entry.module),
                {
                    "target": entry.target,
                    "module": entry.module,
                    "shards": 0,
                    "records": 0,
                    "stale": 0,
                },
            )
            row["shards"] += 1
            row["records"] += entry.records
            row["stale"] += int(entry.stale)
        return {
            "format": STORE_FORMAT,
            "version": VERSION,
            "root": str(self.root),
            "shards": len(entries),
            "stale": sum(1 for e in entries if e.stale),
            "records": sum(e.records for e in entries),
            "slices": [slices[label] for label in sorted(slices)],
        }
