"""Differential test harness for the compositional campaign store.

The store's contract is *bit-identity under composition*: a
``Campaign.run(store=...)`` that loads any mix of stored shards must
produce a result whose ``to_dict()`` equals a fresh exhaustive run's,
and after editing one target module only that module's shards may
re-execute.  :class:`SourcedTarget` makes the contract provable: each
of its modules is built from an explicit source string with an
independent output component, so a single-module edit demonstrably
cannot change any other module's records.
"""

import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.instrument import Harness, Location, VariableSpec
from repro.injection.store import (
    CampaignStore,
    StoreEligibilityWarning,
    logical_id_of,
)
from repro.orchestration.campaigns import plan_shards
from repro.orchestration.tasks import fingerprint_of
from repro.mining.cache import clear_reuse_caches, reuse_caches_disabled
from repro.targets import base
from repro.targets.base import TargetSystem, normalized_source

DATA_DIR = pathlib.Path(__file__).parent / "data"


class SourcedTarget(TargetSystem):
    """A multi-module target whose modules are explicit source strings.

    Each module's source defines ``compute(a, b)``; the target's output
    is the tuple of every module's compute over probed inputs, so the
    modules' output components are provably independent: editing module
    B shifts component B of golden and injected runs identically and
    cannot change any record of module A's campaign.
    """

    name = "SRC"

    def __init__(self, sources: dict) -> None:
        self._sources = dict(sources)
        self._fns = {}
        for module, source in self._sources.items():
            namespace: dict = {}
            exec(compile(source, f"<{module}>", "exec"), namespace)
            self._fns[module] = namespace["compute"]

    @property
    def modules(self):
        return tuple(sorted(self._sources))

    def variables_of(self, module, location=None):
        self.check_module(module)
        return (VariableSpec("a", "int32"), VariableSpec("b", "int32"))

    def run(self, test_case, harness: Harness):
        out = []
        for module in self.modules:
            state = harness.probe(
                module,
                Location.ENTRY,
                {"a": test_case + 1, "b": 2 * test_case + 3},
            )
            out.append(self._fns[module](int(state["a"]), int(state["b"])))
        return tuple(out)

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output

    def fingerprint(self):
        # The exec'd functions have identity reprs; key the golden
        # cache by the raw sources instead.
        return fingerprint_of(
            {
                "class": type(self).__qualname__,
                "sources": sorted(self._sources.items()),
            }
        )

    def shared_state_fingerprint(self):
        # Per-module sources are *not* shared state: editing module B
        # must not invalidate module A's shards.
        return fingerprint_of(
            {
                "class": type(self).__qualname__,
                "modules": sorted(self._sources),
            }
        )

    def module_sources(self, module):
        self.check_module(module)
        return (self._sources[module],)


def source_for(k1: int, k2: int, k3: int) -> str:
    return f"def compute(a, b):\n    return a * {k1} + b * {k2} - {k3}\n"


def config_for(module: str) -> CampaignConfig:
    return CampaignConfig(
        module=module,
        injection_location=Location.ENTRY,
        sample_location=Location.ENTRY,
        test_cases=(0, 1),
        injection_times=(0,),
        bits=(0, 1),
    )


def run_all(target, store=None):
    """One campaign per module; returns {module: CampaignResult}."""
    return {
        module: Campaign(target, config_for(module)).run(store=store)
        for module in target.modules
    }


coeffs = st.tuples(
    st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)
)


# ----------------------------------------------------------------------
# The differential property (tentpole)
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    data=st.data(),
    n_modules=st.integers(2, 3),
)
def test_single_module_edit_is_bit_identical_delta(tmp_path_factory, data, n_modules):
    """After editing one module, ``run(store=...)`` is bit-identical to
    a fresh exhaustive run and only the edited module's shards
    re-execute (proved by the store hit/invalidation counters)."""
    root = tmp_path_factory.mktemp("store")
    modules = [f"m{i}" for i in range(n_modules)]
    original = {
        m: data.draw(coeffs, label=f"coeffs[{m}]") for m in modules
    }
    edited_module = data.draw(st.sampled_from(modules), label="edited")
    edit = data.draw(
        coeffs.filter(lambda ks: ks != original[edited_module]),
        label="edit",
    )

    target = SourcedTarget(
        {m: source_for(*ks) for m, ks in original.items()}
    )
    store = CampaignStore(root)
    cold = run_all(target, store)
    for module, result in cold.items():
        assert result.to_dict() == run_all(target)[module].to_dict()
        counters = result.orchestration["store"]
        assert counters["hits"] == 0
        assert counters["writes"] == result.orchestration["tasks"]

    sources = {m: source_for(*ks) for m, ks in original.items()}
    sources[edited_module] = source_for(*edit)
    edited = SourcedTarget(sources)
    fresh = run_all(edited)
    warm = run_all(edited, CampaignStore(root))
    for module in modules:
        # The differential contract: delta run == fresh run, bitwise.
        assert warm[module].to_dict() == fresh[module].to_dict()
        counters = warm[module].orchestration["store"]
        shards = warm[module].orchestration["tasks"]
        if module == edited_module:
            assert warm[module].orchestration["stored"] == 0
            assert counters["hits"] == 0
            assert counters["invalidated"] == shards
            assert counters["writes"] == shards
        else:
            assert warm[module].orchestration["stored"] == shards
            assert warm[module].orchestration["executed"] == 0
            assert counters == {
                "hits": shards, "misses": 0, "invalidated": 0, "writes": 0,
            }


def test_noop_edit_reuses_every_shard(tmp_path):
    """Comment/whitespace edits normalize away: 100% store reuse."""
    original = {
        "alpha": source_for(3, 1, 0),
        "beta": source_for(1, 5, 2),
    }
    target = SourcedTarget(original)
    store = CampaignStore(tmp_path / "store")
    cold = run_all(target, store)

    noop = dict(original)
    noop["alpha"] = (
        "# a comment the AST never sees\n\n"
        "def compute(a, b):\n\n    return (a * 3) + (b * 1) - 0\n\n"
    )
    edited = SourcedTarget(noop)
    assert normalized_source(noop["alpha"]) == normalized_source(
        original["alpha"]
    )
    warm = run_all(edited, CampaignStore(tmp_path / "store"))
    for module in target.modules:
        assert warm[module].to_dict() == cold[module].to_dict()
        counters = warm[module].orchestration["store"]
        assert counters["hits"] == warm[module].orchestration["tasks"]
        assert warm[module].orchestration["executed"] == 0


def test_failure_spec_edit_invalidates_everything(tmp_path):
    """Editing ``is_failure`` relabels every record: no shard survives."""

    class Inverted(SourcedTarget):
        def is_failure(self, golden_output, run_output):
            return not (golden_output != run_output)

    sources = {"alpha": source_for(2, 1, 0), "beta": source_for(1, 1, 1)}
    store_root = tmp_path / "store"
    run_all(SourcedTarget(sources), CampaignStore(store_root))
    warm = run_all(Inverted(sources), CampaignStore(store_root))
    for result in warm.values():
        counters = result.orchestration["store"]
        assert counters["hits"] == 0
        assert counters["invalidated"] == result.orchestration["tasks"]


def test_ineligible_target_warns_and_runs_storeless(tmp_path):
    class Opaque(SourcedTarget):
        def module_sources(self, module):
            return None

    target = Opaque({"alpha": source_for(1, 2, 3)})
    store = CampaignStore(tmp_path / "store")
    with pytest.warns(StoreEligibilityWarning):
        result = Campaign(target, config_for("alpha")).run(store=store)
    assert "store" not in result.orchestration
    assert store.counters["writes"] == 0
    baseline = Campaign(target, config_for("alpha")).run()
    assert result.to_dict() == baseline.to_dict()


def test_plan_delta_classifies_without_running(tmp_path):
    sources = {"alpha": source_for(2, 3, 1), "beta": source_for(4, 0, 2)}
    target = SourcedTarget(sources)
    store = CampaignStore(tmp_path / "store")
    campaign = Campaign(target, config_for("alpha"))
    assert campaign.plan_delta(store) == {
        "eligible": True, "shards": 4, "stored": 0,
        "invalidated": 0, "missing": 4,
    }
    campaign.run(store=store)
    assert campaign.plan_delta(store)["stored"] == 4
    edited = SourcedTarget({**sources, "alpha": source_for(5, 5, 5)})
    plan = Campaign(edited, config_for("alpha")).plan_delta(store)
    assert plan == {
        "eligible": True, "shards": 4, "stored": 0,
        "invalidated": 4, "missing": 0,
    }


# ----------------------------------------------------------------------
# Golden fingerprints: the store key schema, pinned
# ----------------------------------------------------------------------
GOLDEN_SOURCES = {
    "alpha": "def compute(a, b):\n    return a * 3 + b\n",
    "beta": "def compute(a, b):\n    return a - 2 * b\n",
}


def golden_fingerprints() -> dict:
    target = SourcedTarget(GOLDEN_SOURCES)
    payload = {}
    for module in target.modules:
        campaign = Campaign(target, config_for(module))
        base = campaign.store_key_base()
        keys = [
            {**base, "pairs": [list(pair) for pair in shard]}
            for shard in plan_shards(campaign)
        ]
        payload[module] = {
            "base": fingerprint_of(base),
            "shards": [fingerprint_of(key) for key in keys],
            "logical": [logical_id_of(key) for key in keys],
        }
    return payload


def test_store_fingerprints_match_fixture():
    """Store keys are a persistence schema: any drift (key composition,
    source normalization, fingerprint algorithm) orphans every existing
    store.  If a change is intentional, regenerate the fixture with
    ``python -m tests.injection.test_store`` and say so in the commit.
    """
    fixture = json.loads((DATA_DIR / "store_fingerprints.json").read_text())
    assert golden_fingerprints() == fixture


def test_logical_id_stable_across_edits():
    base = Campaign(
        SourcedTarget(GOLDEN_SOURCES), config_for("alpha")
    ).store_key_base()
    edited_sources = dict(GOLDEN_SOURCES, alpha=source_for(9, 9, 9))
    edited = Campaign(
        SourcedTarget(edited_sources), config_for("alpha")
    ).store_key_base()
    assert base != edited
    key = {**base, "pairs": [["a", "int32", 0]]}
    edited_key = {**edited, "pairs": [["a", "int32", 0]]}
    assert fingerprint_of(key) != fingerprint_of(edited_key)
    assert logical_id_of(key) == logical_id_of(edited_key)


# ----------------------------------------------------------------------
# Store unit behaviour
# ----------------------------------------------------------------------
def _key(n: int = 0, generation: int = 0) -> dict:
    return {
        "schema": 1,
        "target": "T",
        "module_fingerprint": f"mfp{generation}",
        "failure_fingerprint": "ffp",
        "probes": {"injection": [["a", "int32"]], "sample": [["a", "int32"]]},
        "config": {"module": "M"},
        "pairs": [["a", "int32", n]],
    }


class TestCampaignStore:
    def test_put_fetch_roundtrip(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = _key()
        fp = fingerprint_of(key)
        records = [{"r": 1}, {"r": 2}]
        assert store.put(fp, key, records)
        assert store.fetch(fp, key) == records
        assert store.counters == {
            "hits": 1, "misses": 0, "invalidated": 0, "writes": 1,
        }

    def test_put_is_idempotent(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = _key()
        fp = fingerprint_of(key)
        assert store.put(fp, key, [{"r": 1}])
        assert not store.put(fp, key, [{"r": 1}])
        assert store.counters["writes"] == 1

    def test_cold_miss_vs_invalidated(self, tmp_path):
        store = CampaignStore(tmp_path)
        old_key = _key(generation=0)
        store.put(fingerprint_of(old_key), old_key, [{"r": 1}])
        new_key = _key(generation=1)
        assert store.fetch(fingerprint_of(new_key), new_key) is None
        assert store.counters["invalidated"] == 1
        unrelated = _key(n=7, generation=1)
        assert store.fetch(fingerprint_of(unrelated), unrelated) is None
        assert store.counters["misses"] == 1

    def test_index_rebuilds_from_shards(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = _key()
        fp = fingerprint_of(key)
        store.put(fp, key, [{"r": 1}])
        (tmp_path / "index.json").unlink()
        rebuilt = CampaignStore(tmp_path)
        assert rebuilt.fetch(fp, key) == [{"r": 1}]
        # A miss on a superseded slice still classifies correctly: the
        # rebuilt index recovered the logical mapping from shard files.
        new_key = _key(generation=1)
        assert rebuilt.fetch(fingerprint_of(new_key), new_key) is None
        assert rebuilt.counters["invalidated"] == 1
        assert (tmp_path / "index.json").is_file()

    def test_corrupt_shard_is_a_miss_not_an_error(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = _key()
        fp = fingerprint_of(key)
        store.put(fp, key, [{"r": 1}])
        store.shard_path(fp).write_text("{ not json")
        assert store.fetch(fp, key) is None
        assert store.entries() == []

    def test_put_replaces_a_torn_shard(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = _key()
        fp = fingerprint_of(key)
        store.put(fp, key, [{"r": 1}])
        store.shard_path(fp).write_text('{"format": "repro.inj')
        assert not store.contains(fp)
        assert store.put(fp, key, [{"r": 1}])
        assert store.contains(fp)
        assert CampaignStore(tmp_path).fetch(fp, key) == [{"r": 1}]

    def test_corrupt_shard_in_a_full_store_reruns_exactly(self, tmp_path):
        """A torn shard in an otherwise-full store is not "stored":
        the rerun must capture golden runs for it, re-execute it (not
        quarantine it) and rewrite the file."""
        from tests.injection._replay import replay_records
        from tests.orchestration._targets import run_grid_campaign

        fresh = replay_records(run_grid_campaign())
        store = CampaignStore(tmp_path)
        run_grid_campaign().run(store=store)
        torn = sorted((tmp_path / "shards").iterdir())[3]
        torn.write_text(torn.read_text()[:40])

        plan = run_grid_campaign().plan_delta(CampaignStore(tmp_path))
        assert plan["stored"] == plan["shards"] - 1
        rerun = run_grid_campaign().run(store=CampaignStore(tmp_path))
        assert rerun.orchestration["quarantined"] == []
        assert rerun.orchestration["executed"] == 1
        assert [r.to_dict() for r in rerun.records] == [
            r.to_dict() for r in fresh
        ]
        assert CampaignStore(tmp_path).contains(torn.stem)
        again = run_grid_campaign().plan_delta(CampaignStore(tmp_path))
        assert again["stored"] == again["shards"]

    def test_gc_removes_killed_writer_temp_files(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = _key()
        fp = fingerprint_of(key)
        store.put(fp, key, [{"r": 1}])
        leftovers = [
            tmp_path / "shards" / f"{fp}.jsonab12cd.tmp",
            tmp_path / "index.jsonxy34.tmp",
        ]
        for path in leftovers:
            path.write_text("{ torn")
        assert CampaignStore(tmp_path).gc(dry_run=True) == []
        assert all(path.exists() for path in leftovers)
        assert CampaignStore(tmp_path).gc() == []
        assert not any(path.exists() for path in leftovers)
        assert CampaignStore(tmp_path).fetch(fp, key) == [{"r": 1}]

    def test_gc_removes_only_stale_generations(self, tmp_path):
        store = CampaignStore(tmp_path)
        old_key, new_key = _key(generation=0), _key(generation=1)
        old_fp, new_fp = fingerprint_of(old_key), fingerprint_of(new_key)
        store.put(old_fp, old_key, [{"r": 1}])
        store.put(new_fp, new_key, [{"r": 2}])
        assert [e.fingerprint for e in store.stale_entries()] == [old_fp]
        assert store.gc(dry_run=True) == [old_fp]
        assert store.contains(old_fp)
        assert store.gc() == [old_fp]
        assert not store.contains(old_fp)
        assert store.fetch(new_fp, new_key) == [{"r": 2}]

    def test_summary_counts_slices(self, tmp_path):
        store = CampaignStore(tmp_path)
        for n in range(3):
            key = _key(n=n)
            store.put(fingerprint_of(key), key, [{"r": n}])
        summary = store.summary()
        assert summary["shards"] == 3
        assert summary["records"] == 3
        assert summary["stale"] == 0
        assert summary["slices"] == [
            {"target": "T", "module": "M", "shards": 3, "records": 3,
             "stale": 0},
        ]


# ----------------------------------------------------------------------
# Persistence: a lagging index, file compatibility, O(1) writes
# ----------------------------------------------------------------------
PARENT_STORE = DATA_DIR / "parent_store"


def write_golden_store(root) -> None:
    """The pinned store: both golden modules cold, then an edit of
    ``alpha`` (a second generation of its four slices)."""
    run_all(SourcedTarget(GOLDEN_SOURCES), CampaignStore(root))
    edited = SourcedTarget(dict(GOLDEN_SOURCES, alpha=source_for(9, 9, 9)))
    run_all(edited, CampaignStore(root))


def store_file_digests(root) -> dict:
    root = pathlib.Path(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*.json"))
    }


def _probe_keys() -> dict:
    """Keys whose fetch exercises every classification: present
    generations (hits), a third ``alpha`` generation (invalidated) and
    a slice that never ran (cold)."""
    sources = {
        "original": GOLDEN_SOURCES,
        "edited": dict(GOLDEN_SOURCES, alpha=source_for(9, 9, 9)),
        "third": dict(GOLDEN_SOURCES, alpha=source_for(1, 1, 1)),
    }
    keys = {}
    for label, srcs in sources.items():
        for module in ("alpha", "beta"):
            campaign = Campaign(SourcedTarget(srcs), config_for(module))
            base = campaign.store_key_base()
            for n, shard in enumerate(plan_shards(campaign)):
                keys[f"{label}/{module}/{n}"] = {
                    **base, "pairs": [list(pair) for pair in shard],
                }
    cold = dict(keys["original/beta/0"], config={"module": "gamma"})
    keys["cold"] = cold
    return keys


def _classify(store, keys: dict) -> dict:
    """Per labelled key: the counter its ``fetch`` moves (``hits``,
    ``invalidated`` or ``misses``)."""
    verdicts = {}
    for label, key in keys.items():
        before = dict(store.counters)
        store.fetch(fingerprint_of(key), key)
        (moved,) = [k for k in before if store.counters[k] != before[k]]
        verdicts[label] = moved
    return verdicts


class TestStorePersistence:
    def test_unflushed_generations_recover_on_reopen(self, tmp_path):
        """A writer that puts two generations and dies before flushing
        leaves a store that reads exactly like a flushed one."""
        old_key, new_key = _key(generation=0), _key(generation=1)
        other = _key(n=3)
        old_fp, new_fp = fingerprint_of(old_key), fingerprint_of(new_key)
        crashed, flushed = CampaignStore(tmp_path / "a"), CampaignStore(tmp_path / "b")
        for store in (crashed, flushed):
            store.put(old_fp, old_key, [{"r": 1}])
            store.put(new_fp, new_key, [{"r": 2}])
            store.put(fingerprint_of(other), other, [{"r": 3}])
        flushed.flush()
        # The first put created index.json; the later ones never reached it.
        index = json.loads((tmp_path / "a" / "index.json").read_text())
        assert index["sequence"] == 1

        reopened = CampaignStore(tmp_path / "a")
        assert reopened.fetch(old_fp, old_key) == [{"r": 1}]
        assert reopened.fetch(new_fp, new_key) == [{"r": 2}]
        probes = {
            "edited": _key(generation=2),
            "other edited": _key(n=3, generation=2),
            "cold": _key(n=9),
        }
        verdicts = _classify(reopened, probes)
        assert verdicts == _classify(CampaignStore(tmp_path / "b"), probes)
        assert verdicts == {
            "edited": "invalidated", "other edited": "invalidated", "cold": "misses",
        }
        assert (tmp_path / "a" / "index.json").read_bytes() == (
            tmp_path / "b" / "index.json"
        ).read_bytes()

        assert [e.fingerprint for e in reopened.stale_entries()] == [old_fp]
        assert CampaignStore(tmp_path / "a").gc() == [old_fp]
        assert reopened.fetch(new_fp, new_key) == [{"r": 2}]

        later = CampaignStore(tmp_path / "a")
        latest_key = _key(n=5)
        latest_fp = fingerprint_of(latest_key)
        assert later.put(latest_fp, latest_key, [])
        sequences = [e.sequence for e in later.entries()]
        newest = json.loads(later.shard_path(latest_fp).read_text())
        assert newest["sequence"] == max(sequences) == 4

    def test_gc_never_deletes_the_newest_shard_on_disk(self, tmp_path):
        """Staleness comes from the shard files, not the index: when the
        generation the index names is gone, the one left is live."""
        store = CampaignStore(tmp_path)
        old_key, new_key = _key(generation=0), _key(generation=1)
        store.put(fingerprint_of(old_key), old_key, [])
        store.put(fingerprint_of(new_key), new_key, [])
        store.flush()
        store.shard_path(fingerprint_of(new_key)).unlink()
        assert CampaignStore(tmp_path).gc() == []
        assert store.contains(fingerprint_of(old_key))

    def test_task_graph_flushes_when_the_pool_raises(self, tmp_path):
        from repro.orchestration.pool import TaskOutcome
        from repro.orchestration.tasks import Task, TaskGraph

        class DiesAfterOne:
            def run(self, tasks, on_result):
                task = tasks[0]
                on_result(task, TaskOutcome(task.task_id, "done", [1]))
                raise RuntimeError("worker lost")

        tasks = [
            Task(f"t:{n}", fingerprint_of(key), len, key=key)
            for n, key in enumerate([_key(n=0), _key(n=1)])
        ]
        store = CampaignStore(tmp_path)
        store.put(fingerprint_of(_key(n=7)), _key(n=7), [])
        with pytest.raises(RuntimeError):
            TaskGraph(tasks).run(DiesAfterOne(), store=store)
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["sequence"] == 2
        assert logical_id_of(_key(n=0)) in index["logical"]

    def test_files_match_the_pinned_writer(self, tmp_path):
        """Shard names, shard bytes and the flushed ``index.json`` are a
        persistence format: the pins come from the per-put writer the
        store had before the index was kept in memory."""
        pins = json.loads((DATA_DIR / "store_files.json").read_text())
        write_golden_store(tmp_path)
        assert store_file_digests(tmp_path) == pins
        assert store_file_digests(PARENT_STORE) == pins

    def test_store_from_the_per_put_writer_reads_correctly(self, tmp_path):
        root = tmp_path / "store"
        write_golden_store(root)
        old = tmp_path / "old"
        shutil.copytree(PARENT_STORE, old)
        verdicts = _classify(CampaignStore(old), _probe_keys())
        assert verdicts == _classify(CampaignStore(root), _probe_keys())
        assert verdicts["cold"] == "misses"
        assert {verdicts[f"third/alpha/{n}"] for n in range(4)} == {"invalidated"}
        assert {v for k, v in verdicts.items() if k.startswith(("original", "edited"))} == {
            "hits"
        }
        third = SourcedTarget(dict(GOLDEN_SOURCES, alpha=source_for(1, 1, 1)))
        assert Campaign(third, config_for("alpha")).plan_delta(
            CampaignStore(old)
        )["invalidated"] == 4
        assert len(CampaignStore(old).gc()) == 4

    def test_cold_run_writes_each_shard_once_and_the_index_at_most_twice(
        self, tmp_path, monkeypatch
    ):
        """The O(1) guard: per-shard store cost must not grow with the
        store (no index rewrite, no index re-read per shard)."""
        writes, index_reads = [], []
        write_json = CampaignStore._write_json
        read_text = pathlib.Path.read_text

        def counting_write(self, path, payload):
            writes.append("index" if path.name == "index.json" else "shard")
            return write_json(self, path, payload)

        def counting_read(self, *args, **kwargs):
            if self.name == "index.json":
                index_reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(CampaignStore, "_write_json", counting_write)
        monkeypatch.setattr(pathlib.Path, "read_text", counting_read)
        wide = dataclasses.replace(config_for("alpha"), bits=tuple(range(8)))
        sources = {"alpha": source_for(2, 3, 1), "beta": source_for(4, 0, 2)}
        for root in (tmp_path / "fresh", tmp_path / "empty"):
            if root.name == "empty":
                root.mkdir()
            writes.clear()
            index_reads.clear()
            store = CampaignStore(root)
            result = Campaign(SourcedTarget(sources), wide).run(store=store)
            shards = result.orchestration["tasks"]
            assert shards == 16
            assert writes.count("shard") == shards
            assert len(os.listdir(root / "shards")) == shards
            assert writes.count("index") <= 2
            assert len(index_reads) <= 1

        # A delta run on a new instance: one index read for every miss.
        index_reads.clear()
        edited = SourcedTarget(dict(sources, alpha=source_for(5, 5, 5)))
        store = CampaignStore(tmp_path / "fresh")
        Campaign(edited, wide).run(store=store)
        Campaign(SourcedTarget(sources), config_for("beta")).run(store=store)
        assert store.counters["invalidated"] == 16
        assert store.counters["misses"] == 4
        assert len(index_reads) == 1


# ----------------------------------------------------------------------
# TargetSystem.fingerprint(): identity-repr attributes (satellite fix)
# ----------------------------------------------------------------------
class _Knobs:
    """Dataclass-like attribute whose default repr is identity-based."""

    def __init__(self, gain: float, limit: int) -> None:
        self.gain = gain
        self.limit = limit


class _KnobbedTarget(TargetSystem):
    name = "KT"

    def __init__(self, knobs) -> None:
        self.knobs = knobs

    @property
    def modules(self):
        return ("M",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        return (VariableSpec("a", "int32"),)

    def run(self, test_case, harness: Harness):
        return test_case

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output


class TestFingerprintIdentityRepr:
    def test_dataclass_like_attr_hashes_by_state(self):
        a = _KnobbedTarget(_Knobs(1.5, 10))
        b = _KnobbedTarget(_Knobs(1.5, 10))
        c = _KnobbedTarget(_Knobs(2.5, 10))
        assert a.fingerprint() is not None
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_identity_repr_without_state_still_falls_back(self):
        # The regression the fix guards: a truly opaque attribute
        # (identity repr, no __dict__) must yield None, not a
        # fingerprint that silently differs per process.
        a = _KnobbedTarget(lambda x: x)
        assert a.fingerprint() is None

    def test_nested_containers_of_stateful_objects(self):
        a = _KnobbedTarget({"k": [_Knobs(1.0, 1)]})
        b = _KnobbedTarget({"k": [_Knobs(1.0, 1)]})
        assert a.fingerprint() == b.fingerprint()



class TestNormalizedSourceMemo:
    """``normalized_source`` is memoised by the exact source text."""

    ONE = "def f(x):\n    return x + 1\n"
    TWO = "def f(x):\n    return x + 2\n"

    def test_different_texts_never_share_an_entry(self):
        clear_reuse_caches()
        one, two = normalized_source(self.ONE), normalized_source(self.TWO)
        assert one != two
        assert normalized_source(self.TWO) == two
        assert normalized_source(self.ONE) == one
        commented = "# a comment\n" + self.ONE
        assert normalized_source(commented) == one
        assert len(base._NORMALIZED_SOURCES) == 3  # one entry per text

    def test_an_edited_module_file_is_a_new_entry(self, tmp_path):
        clear_reuse_caches()
        path = tmp_path / "edited_unit.py"
        path.write_text(self.ONE)
        spec = importlib.util.spec_from_file_location("edited_unit", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        before = normalized_source(module)
        # Same module object, name and path; only the text changes.
        path.write_text(self.TWO)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        assert normalized_source(module) == normalized_source(self.TWO) != before

    def test_disabled_caches_normalize_every_time(self, monkeypatch):
        parses = []
        parse = base.ast.parse
        monkeypatch.setattr(
            base.ast, "parse", lambda text: parses.append(text) or parse(text)
        )
        clear_reuse_caches()
        with reuse_caches_disabled():
            normalized_source(self.ONE)
            normalized_source(self.ONE)
        assert len(parses) == 2 and len(base._NORMALIZED_SOURCES) == 0
        normalized_source(self.ONE)
        normalized_source(self.ONE)
        assert len(parses) == 3 and len(base._NORMALIZED_SOURCES) == 1

if __name__ == "__main__":
    # Regenerate the golden fixtures (see
    # test_store_fingerprints_match_fixture and
    # test_files_match_the_pinned_writer).  The store files are a
    # persistence format: regenerate them only for an intentional
    # format change, and say so in the commit.
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    path = DATA_DIR / "store_fingerprints.json"
    path.write_text(json.dumps(golden_fingerprints(), indent=2) + "\n")
    print(f"wrote {path}")
    shutil.rmtree(PARENT_STORE, ignore_errors=True)
    write_golden_store(PARENT_STORE)
    path = DATA_DIR / "store_files.json"
    path.write_text(
        json.dumps(store_file_digests(PARENT_STORE), indent=2) + "\n"
    )
    print(f"wrote {path} and {PARENT_STORE}")
