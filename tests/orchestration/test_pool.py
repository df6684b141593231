"""Tests for the worker pools: retries, quarantine, worker death."""

import pytest

from repro.orchestration import (
    ProcessPool,
    SerialPool,
    Task,
    configure,
    default_pool,
    make_pool,
    picklable,
)

from tests.orchestration._targets import boom, die, flaky, snooze, square


def _tasks(n=4):
    return [Task(f"t:{i:02d}", f"fp{i}", square, (i,)) for i in range(n)]


class TestSerialPool:
    def test_runs_in_order(self):
        order = []
        pool = SerialPool()
        outcomes = pool.run(_tasks(), on_result=lambda t, o: order.append(t.task_id))
        assert order == [f"t:{i:02d}" for i in range(4)]
        assert all(o.ok for o in outcomes.values())

    def test_retry_then_success(self, tmp_path):
        counter = tmp_path / "calls"
        task = Task("t:00", "fp", flaky, (str(counter), 2, 41))
        outcome = SerialPool(max_retries=2, backoff=0).run([task])["t:00"]
        assert outcome.status == "done"
        assert outcome.result == 41
        assert outcome.attempts == 3

    def test_quarantine_after_retries(self):
        task = Task("t:00", "fp", boom, ("kaput",))
        outcome = SerialPool(max_retries=1, backoff=0).run([task])["t:00"]
        assert outcome.status == "quarantined"
        assert not outcome.ok
        assert "kaput" in outcome.error
        assert outcome.attempts == 2

    def test_quarantine_does_not_poison_rest(self):
        tasks = [
            Task("t:00", "a", square, (3,)),
            Task("t:01", "b", boom, ()),
            Task("t:02", "c", square, (4,)),
        ]
        outcomes = SerialPool(max_retries=0, backoff=0).run(tasks)
        assert outcomes["t:00"].result == 9
        assert outcomes["t:01"].status == "quarantined"
        assert outcomes["t:02"].result == 16


class TestProcessPool:
    def test_results_match_serial(self):
        with ProcessPool(3, backoff=0) as pool:
            outcomes = pool.run(_tasks(8))
        assert [o.result for o in outcomes.values()] == [
            SerialPool().run(_tasks(8))[t.task_id].result for t in _tasks(8)
        ]

    def test_raising_task_quarantined_others_complete(self):
        tasks = [
            Task("t:00", "a", square, (3,)),
            Task("t:01", "b", boom, ()),
            Task("t:02", "c", square, (4,)),
        ]
        with ProcessPool(2, max_retries=1, backoff=0) as pool:
            outcomes = pool.run(tasks)
        assert outcomes["t:00"].result == 9
        assert outcomes["t:01"].status == "quarantined"
        assert outcomes["t:01"].attempts == 2
        assert outcomes["t:02"].result == 16

    def test_worker_death_quarantined_others_complete(self):
        # die() takes its worker down via os._exit: the executor breaks,
        # is rebuilt, and innocent tasks still complete.
        tasks = [
            Task("t:00", "a", square, (5,)),
            Task("t:01", "b", die, ()),
            Task("t:02", "c", snooze, (0.01, 7)),
        ]
        with ProcessPool(2, max_retries=1, backoff=0) as pool:
            outcomes = pool.run(tasks)
        assert outcomes["t:01"].status == "quarantined"
        assert "worker died" in outcomes["t:01"].error
        assert outcomes["t:00"].result == 25
        assert outcomes["t:02"].result == 7

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ProcessPool(0)


class TestMakePool:
    def test_serial_for_none_or_one(self):
        assert isinstance(make_pool(None), SerialPool)
        assert isinstance(make_pool(1), SerialPool)
        assert not make_pool(1).isolate  # in-process errors propagate

    def test_process_for_many(self):
        pool = make_pool(2)
        try:
            assert isinstance(pool, ProcessPool)
            assert pool.jobs == 2
        finally:
            pool.close()


class TestPicklable:
    def test_module_function(self):
        assert picklable(square)

    def test_lambda_is_not(self):
        assert not picklable(lambda: 1)


class TestConfigure:
    def teardown_method(self):
        configure()  # reset process-wide defaults

    def test_default_pool_none_when_unconfigured(self):
        configure()
        assert default_pool() is None

    def test_default_pool_reflects_jobs(self):
        configure(jobs=2)
        pool = default_pool()
        try:
            assert isinstance(pool, ProcessPool)
            assert pool.jobs == 2
        finally:
            pool.close()

    def test_serial_jobs_give_no_pool(self):
        configure(jobs=1)
        assert default_pool() is None
