"""The supervised process pool ``repro batch`` and ``repro serve`` share.

A worker that dies breaks its whole executor; :class:`WorkerPool`
replaces it once however many callers saw it break, without waiting
for the old executor's teardown, kills wedged workers on request, and
shuts down within a bound.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro import workers
from repro.workers import BrokenProcessPool, WorkerPool


def _wedge(marker):
    with open(marker, "w"):
        pass
    time.sleep(60)


def _wedged_task(pool, tmp_path):
    """Submit a task that sleeps for a minute once it has started."""
    marker = str(tmp_path / "started")
    future = pool.executor.submit(_wedge, marker)
    deadline = time.monotonic() + 30
    while not os.path.exists(marker):
        assert time.monotonic() < deadline, "the task never started"
        time.sleep(0.01)
    return future


def _broken_pool():
    pool = WorkerPool(1)
    crashed = pool.executor.submit(os._exit, 3)
    with pytest.raises(BrokenProcessPool):
        crashed.result(timeout=30)
    assert pool.broken
    return pool


class TestRebuild:
    def test_two_threads_that_see_one_broken_executor_rebuild_once(self):
        pool = _broken_pool()
        seen = pool.executor
        barrier = threading.Barrier(2)
        rebuilt = []

        def rebuild():
            barrier.wait()
            rebuilt.append(pool.rebuild(seen))

        threads = [threading.Thread(target=rebuild) for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert sorted(rebuilt) == [False, True]
            assert pool.executor is not seen
            assert not pool.broken
            assert pool.executor.submit(pow, 2, 5).result(timeout=30) == 32
        finally:
            pool.close()

    def test_rebuild_does_not_wait_for_the_old_teardown(self, monkeypatch):
        released = threading.Event()
        shut = workers._shut

        def slow_shut(executor):
            released.wait(30)
            shut(executor)

        monkeypatch.setattr(workers, "_shut", slow_shut)
        pool = _broken_pool()
        try:
            started = time.monotonic()
            assert pool.rebuild(pool.executor)
            assert pool.executor.submit(pow, 2, 5).result(timeout=30) == 32
            # The new executor answered while the old one's teardown
            # was still held.
            assert not released.is_set()
            assert time.monotonic() - started < 10
        finally:
            released.set()
            pool.close()


class TestKill:
    def test_kill_turns_a_wedged_task_into_broken_process_pool(
        self, tmp_path
    ):
        pool = WorkerPool(1)
        try:
            wedged = _wedged_task(pool, tmp_path)
            started = time.monotonic()
            pool.kill()
            with pytest.raises(BrokenProcessPool):
                wedged.result(timeout=30)
            assert time.monotonic() - started < 30
            assert pool.broken
        finally:
            pool.close()


class TestClose:
    def test_close_returns_within_its_bound_and_leaves_no_worker(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(workers, "TEARDOWN_S", 0.5)
        before = {child.pid for child in multiprocessing.active_children()}
        pool = WorkerPool(1)
        _wedged_task(pool, tmp_path)
        (worker,) = [
            child for child in multiprocessing.active_children()
            if child.pid not in before
        ]
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 3
        worker.join(timeout=10)
        assert not worker.is_alive()

    def test_close_of_an_idle_pool_is_prompt(self):
        pool = WorkerPool(2)
        assert pool.executor.submit(pow, 3, 2).result(timeout=30) == 9
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 3
