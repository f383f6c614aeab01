"""The one worker pool: batch chunks, sweep trials and service solves.

Jobs run in worker *processes* (not threads: a SIGKILLed or wedged job
must never take its caller down with it), each paired with a
parent-side serving thread that feeds it jobs over a pipe.  A job is a
module-level function, shipped by reference, plus one argument; its
outcome is ``("ok", value)`` or ``("error", code, message)``.

* **bounded queue + backpressure** -- :meth:`WorkerPool.submit` counts
  queued-plus-running jobs against ``max_queue`` and raises
  :class:`PoolSaturated` past it; the service maps that to a 429.
* **kill isolation + respawn** -- a worker that dies mid-job (SIGKILL,
  OOM, a segfaulting extension) fails *that one job* as
  ``worker_killed``; the serving thread respawns the worker and keeps
  draining the queue.  Batch and sweeps then finish in-process.
* **no orphans** -- a worker also watches its parent's sentinel and
  exits when the parent dies.
* **warm workers** -- worker processes persist across jobs, so the
  per-process scratch and graph caches (:mod:`repro.sweeps.runner`)
  actually pay off.
* **deadline hooks** -- every job carries ``deadline_at``; jobs that
  expire while still queued fail without ever executing, and the reaper
  (:mod:`repro.service.reaper`) calls :meth:`WorkerPool.request_kill` on
  running jobs past their deadline.

The pool is synchronous (threads + pipes): a caller blocks in
:meth:`PoolJob.wait`, the service's connection and job threads included.
It is stdlib-only and imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import queue
import signal
import threading
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Jobs in flight per worker in the batch and sweep windows.  Sized from
#: ``BENCH_sweep_scaling.json``: trial execution dominates submission
#: latency (a sweep claim is 0.1-0.6 ms of disk bookkeeping at 12 to 960
#: trials), so two -- one running, one queued -- keep every worker fed.
#: A pending sweep entry is a claimed trial, so deeper windows only add
#: leases a dying driver can orphan.
INFLIGHT_PER_WORKER = 2


class PoolSaturated(RuntimeError):
    """Queue depth hit ``max_queue``; the caller should shed load (429)."""


class PoolJob:
    """One unit of pool work -- ``fn(arg)`` -- and its eventual outcome.

    ``outcome`` is ``("ok", value)`` or ``("error", code, message)``;
    ``wait()`` blocks until it is set.
    """

    def __init__(
        self,
        job_id: str,
        fn: Callable[[Any], Any],
        arg: Any,
        deadline_s: Optional[float],
    ) -> None:
        self.job_id = job_id
        self.fn = fn
        self.arg = arg
        self.deadline_s = deadline_s
        self.deadline_at = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self.kill_reason: Optional[str] = None
        self.worker: Optional["_Worker"] = None
        self.outcome: Optional[Tuple] = None
        self._done = threading.Event()

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_at is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_at

    def wait(self, timeout: Optional[float] = None) -> Tuple:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish within {timeout}s"
            )
        return self.outcome

    def _finish(self, outcome: Tuple) -> None:
        self.outcome = outcome
        self._done.set()


def _worker_main(conn) -> None:  # pragma: no cover - child process
    """Worker-process loop: ``(fn, arg) -> ("ok", fn(arg)) | ("error", ...)``.

    A forked worker holds the parent's end of its own job pipe, so
    ``recv`` never sees EOF after a SIGKILLed parent; the parent's
    sentinel is what tells the worker to exit.
    """
    watched = [conn, mp.parent_process().sentinel]
    while True:
        if conn not in wait(watched):
            return  # only the sentinel is ready: the parent died
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        fn, arg = message
        try:
            outcome = ("ok", fn(arg))
        except Exception as exc:
            outcome = ("error", "solve_failed", f"{type(exc).__name__}: {exc}")
        conn.send(outcome)


class _Worker:
    """One worker process plus its parent-side pipe end."""

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()

    def kill(self) -> None:
        if self.process.is_alive():
            try:
                os.kill(self.process.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # pragma: no cover
                pass

    def close(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stubborn worker
            self.kill()
            self.process.join(timeout=1.0)
        self.conn.close()


class WorkerPool:
    """``workers`` persistent worker processes behind a bounded queue.

    Construction forks every worker before starting any serving thread,
    and raises ``OSError`` when a worker cannot start (callers that can
    run in-process catch it).
    """

    def __init__(self, workers: int = 1, max_queue: int = 8) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = max_queue
        self._ctx = mp.get_context()
        self._queue: "queue.Queue[Optional[PoolJob]]" = queue.Queue()
        self._lock = threading.Lock()
        self._depth = 0  # queued + running
        self._ids = itertools.count(1)
        self._closed = False
        # Counters (health + the zero-recompute spy): ``executed`` counts
        # jobs actually sent to a worker -- a cache hit never moves it.
        self.executed = 0
        self.completed = 0
        self.killed = 0
        self.respawns = 0
        self._workers: List[_Worker] = []
        self._running: Dict[str, PoolJob] = {}
        try:
            for _ in range(workers):
                self._workers.append(_Worker(self._ctx))
        except OSError:
            for worker in self._workers:
                worker.close()
            raise
        self._threads = [
            threading.Thread(
                target=self._serve, args=(index,), daemon=True,
                name=f"repro-pool-{index}",
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------

    def submit(
        self,
        fn: Callable[[Any], Any],
        arg: Any,
        *,
        deadline_s: Optional[float] = None,
    ) -> PoolJob:
        """Enqueue ``fn(arg)``; :class:`PoolSaturated` when the queue is full."""
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._lock:
            if self._depth >= self.max_queue:
                raise PoolSaturated(
                    f"worker queue is full ({self._depth}/{self.max_queue} "
                    f"jobs in flight); retry later"
                )
            self._depth += 1
        job = PoolJob(f"j{next(self._ids)}", fn, arg, deadline_s)
        self._queue.put(job)
        return job

    # -- introspection / control ---------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._depth

    def running_jobs(self) -> List[PoolJob]:
        with self._lock:
            return list(self._running.values())

    def alive_workers(self) -> int:
        return sum(1 for worker in self._workers if worker.process.is_alive())

    def request_kill(self, job: PoolJob, reason: str) -> bool:
        """Kill the worker executing ``job`` (reaper entry point).

        Records ``reason`` as the job's failure code first, so the
        serving thread reports ``deadline_exceeded`` rather than the
        generic ``worker_killed`` when the death was deliberate.
        """
        with self._lock:
            if job.job_id not in self._running or job.kill_reason is not None:
                return False
            job.kill_reason = reason
            worker = job.worker
        if worker is not None:
            worker.kill()
        return True

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "executed": self.executed,
                "completed": self.completed,
                "killed": self.killed,
                "respawns": self.respawns,
                "queue_depth": self._depth,
                "workers": len(self._workers),
                "alive_workers": self.alive_workers(),
            }

    def close(self) -> None:
        """Stop the pool: queued jobs fail unrun and running ones are
        killed (both as ``worker_killed``); nothing is respawned."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            busy = [job.worker for job in self._running.values()]
        for worker in busy:
            worker.kill()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=2.0)
        for worker in self._workers:
            worker.close()

    # -- the per-worker serving loop -----------------------------------

    def _serve(self, index: int) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if self._closed:
                message = f"the pool closed before job {job.job_id} ran"
                self._finish(job, ("error", "worker_killed", message))
                continue
            if job.expired():
                # Never executed: fail from the queue without burning a
                # worker on a request whose client already gave up.
                self._finish(
                    job,
                    (
                        "error",
                        "deadline_exceeded",
                        f"job {job.job_id} spent its {job.deadline_s}s "
                        f"deadline queued (queue depth "
                        f"{self.queue_depth}); retry with a longer "
                        f"deadline or when the queue drains",
                    ),
                )
                continue
            worker = self._workers[index]
            if not worker.process.is_alive():
                worker = self._respawn(index)
            with self._lock:
                job.worker = worker
                self._running[job.job_id] = job
                self.executed += 1
            try:
                worker.conn.send((job.fn, job.arg))
            except (OSError, BrokenPipeError):
                outcome = None  # died before the job reached it
            except Exception as exc:  # the job does not pickle
                outcome = ("error", "solve_failed", f"{type(exc).__name__}: {exc}")
            else:
                outcome = self._await_worker(worker)
            if outcome is None:
                reason = job.kill_reason or "worker_killed"
                with self._lock:
                    self.killed += 1
                if not self._closed:
                    self._respawn(index)
                outcome = (
                    "error",
                    reason,
                    (
                        f"job {job.job_id} exceeded its "
                        f"{job.deadline_s}s deadline and was reaped"
                        if reason == "deadline_exceeded"
                        else f"worker executing job {job.job_id} died "
                        f"mid-solve; it was respawned and the server "
                        f"keeps serving -- retry the request"
                    ),
                )
            with self._lock:
                self._running.pop(job.job_id, None)
            self._finish(job, outcome)

    @staticmethod
    def _await_worker(worker: _Worker) -> Optional[Tuple]:
        """The worker's outcome, or ``None`` when it died first."""
        if worker.conn in wait([worker.conn, worker.process.sentinel]):
            try:
                return worker.conn.recv()
            except (EOFError, OSError):
                pass
        return None

    def _respawn(self, index: int) -> _Worker:
        old = self._workers[index]
        try:
            old.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker = _Worker(self._ctx)
        with self._lock:
            self._workers[index] = worker
            self.respawns += 1
        return worker

    def _finish(self, job: PoolJob, outcome: Tuple) -> None:
        with self._lock:
            self._depth -= 1
            if outcome[0] == "ok":
                self.completed += 1
        job._finish(outcome)
