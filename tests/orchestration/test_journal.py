"""TaskGraph resumption through the campaign store: completed tasks load
instead of re-executing, as long as their store address holds."""

from repro.injection.store import CampaignStore
from repro.orchestration import SerialPool, Task, TaskGraph, fingerprint_of

from tests.orchestration._targets import record_call, square


def _task(task_id: str, version: str, fn, args) -> Task:
    key = {"task": task_id, "version": version}
    return Task(task_id, fingerprint_of(key), fn, args, key=key)


class TestTaskGraphCheckpointing:
    def test_completed_tasks_not_reexecuted(self, tmp_path):
        counter = tmp_path / "calls"
        tasks = [
            _task(f"t:{i}", "v1", record_call, (str(counter), i))
            for i in range(4)
        ]
        first = TaskGraph(tasks).run(SerialPool(), CampaignStore(tmp_path / "s"))
        assert all(o.status == "done" for o in first.values())
        assert counter.read_text().count("\n") == 4

        second = TaskGraph(tasks).run(SerialPool(), CampaignStore(tmp_path / "s"))
        assert all(o.status == "stored" for o in second.values())
        assert [o.result for o in second.values()] == [0, 1, 2, 3]
        assert counter.read_text().count("\n") == 4  # nothing re-ran

    def test_fingerprint_mismatch_reexecutes(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        counter = tmp_path / "calls"
        old = _task("t:0", "old", record_call, (str(counter), 5))
        TaskGraph([old]).run(SerialPool(), store)
        new = _task("t:0", "new", record_call, (str(counter), 6))
        outcomes = TaskGraph([new]).run(SerialPool(), store)
        assert outcomes["t:0"].status == "done"
        assert outcomes["t:0"].result == 6
        # The re-run is stored under the new address.
        assert store.contains(new.fingerprint)
        assert store.contains(old.fingerprint)

    def test_quarantined_tasks_not_checkpointed(self, tmp_path):
        from tests.orchestration._targets import boom

        store = CampaignStore(tmp_path / "s")
        tasks = [_task("t:0", "v1", boom, ())]
        outcomes = TaskGraph(tasks).run(SerialPool(max_retries=0, backoff=0), store)
        assert outcomes["t:0"].status == "quarantined"
        assert store.entries() == []

    def test_encode_decode_applied(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        task = _task("t:0", "v1", square, (3,))
        graph = TaskGraph(
            [task], encode=lambda r: {"wrapped": r}, decode=lambda p: p["wrapped"]
        )
        graph.run(SerialPool(), store)
        assert store.fetch(task.fingerprint, task.key) == {"wrapped": 9}
        cached = graph.run(SerialPool(), store)
        assert cached["t:0"].status == "stored"
        assert cached["t:0"].result == 9

    def test_unstorable_tasks_always_execute(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        counter = tmp_path / "calls"
        tasks = [Task("t:0", None, record_call, (str(counter), 1))]
        for _ in range(2):
            outcomes = TaskGraph(tasks).run(SerialPool(), store)
            assert outcomes["t:0"].status == "done"
        assert counter.read_text().count("\n") == 2
        assert store.entries() == []
