"""The deadline reaper: no job outlives its deadline.

A background thread scans the pool's running jobs every ``interval_s``
and SIGKILLs the worker executing any job past its ``deadline_at``
(:meth:`WorkerPool.request_kill` records the reason first, so the
failure surfaces as ``deadline_exceeded`` rather than the generic
``worker_killed``).  Killing the *process* is deliberate: a solve wedged
inside a numpy kernel or a pathological graph never checks a flag, and
the pool's respawn machinery already makes worker death a single-request
event.  Queued-but-expired jobs are cheaper -- the serving threads fail
those without executing them at all.
"""

from __future__ import annotations

import threading

from ..pool import WorkerPool


class Reaper:
    """Scan ``pool`` every ``interval_s`` seconds; kill expired jobs."""

    def __init__(self, pool: WorkerPool, interval_s: float = 0.05) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.pool = pool
        self.interval_s = interval_s
        self.reaped = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-reaper"
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            for job in self.pool.running_jobs():
                if job.expired() and job.kill_reason is None:
                    if self.pool.request_kill(job, "deadline_exceeded"):
                        self.reaped += 1

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)
