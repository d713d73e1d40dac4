"""One supervised process pool for ``repro batch`` and ``repro serve``.

One dead worker breaks its whole executor: every future in flight fails
with :class:`BrokenProcessPool`, and so does every later submit.
:class:`WorkerPool` replaces a broken executor once however many callers
saw it break, kills wedged workers, and tears executors down within a
bound, off the caller's thread (DESIGN.md §13); what to retry is the
caller's policy.  This is the one module that builds a process executor
and reads its private state: the standard library has no public way to
ask whether an executor is broken, to kill a wedged worker, or to bound
a teardown.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Tuple

__all__ = ["BrokenProcessPool", "WorkerPool"]

#: Seconds a torn-down executor's manager thread gets to finish.
TEARDOWN_S = 5.0


class WorkerPool:
    """``workers`` processes behind a rebuildable :attr:`executor`.

    ``initializer(*initargs)`` runs in every worker of every executor.
    Keep the executor you submitted to: :meth:`rebuild` compares it.
    """

    def __init__(
        self,
        workers: int,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
    ):
        self._spawn = lambda: ProcessPoolExecutor(
            workers, initializer=initializer, initargs=initargs
        )
        self._lock = threading.Lock()
        self._teardowns: List[threading.Thread] = []
        self.executor = self._spawn()

    @property
    def broken(self) -> bool:
        """Whether the current executor has lost a worker."""
        return bool(getattr(self.executor, "_broken", False))

    def rebuild(self, seen: ProcessPoolExecutor) -> bool:
        """Replace ``seen`` by a fresh executor if it is still current.

        Of the callers that saw ``seen`` break, exactly one gets
        ``True``; the old executor is torn down on a background thread.
        """
        with self._lock:
            if self.executor is not seen:
                return False
            self.executor = self._spawn()
            teardown = threading.Thread(
                target=_shut, args=(seen,),
                name="repro-worker-teardown", daemon=True,
            )
            self._teardowns.append(teardown)
        teardown.start()
        return True

    def kill(self) -> None:
        """SIGKILL the current workers; their tasks fail as a crash."""
        _kill(_workers_of(self.executor))

    def close(self) -> None:
        """Shut down within about :data:`TEARDOWN_S`, killing stragglers."""
        deadline = time.monotonic() + TEARDOWN_S
        _shut(self.executor)
        for teardown in self._teardowns:
            teardown.join(max(0.0, deadline - time.monotonic()))


def _workers_of(executor: ProcessPoolExecutor) -> list:
    return list((getattr(executor, "_processes", None) or {}).values())


def _kill(processes) -> None:
    for process in processes:
        try:
            process.kill()
        except Exception:
            pass


def _shut(executor: ProcessPoolExecutor) -> None:
    # Grab the manager thread and the workers before shutdown() drops
    # them, then give the manager a bounded join: if it is still
    # mid-teardown at interpreter exit, the atexit hook races its
    # wakeup-pipe close and prints "Exception ignored ... Bad file
    # descriptor" after an otherwise clean run.  A worker still running
    # a task when the bound expires is killed.
    manager = getattr(executor, "_executor_manager_thread", None)
    processes = _workers_of(executor)
    executor.shutdown(wait=False, cancel_futures=True)
    if manager is not None:
        manager.join(TEARDOWN_S)
        if manager.is_alive():
            _kill(processes)
