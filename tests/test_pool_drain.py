"""The pool drain (:func:`repro.pool.drain`) and its one fall-back rule.

The batch runner and the sweep driver share the drain, so both of its
fall-back cases are pinned here for both callers: a pool that cannot
start, and (for the sweep; the batch case is in ``test_worker_pool.py``)
every worker dying on its first task.  Either way the caller warns once
and finishes in the same call, bit-identically to a sequential run.
"""

import math
import multiprocessing as mp
import os
import signal

import pytest

import repro.pool as pool
import repro.sweeps.runner as runner
from repro.pool import INFLIGHT_PER_WORKER, drain
from repro.sim.batch import run_trials
from repro.sweeps import TrialFrontier, run_sweep, write_merged

from test_sweep_frontier import small_manifest

FORK_AND_TWO_CPUS = pytest.mark.skipif(
    mp.get_start_method() != "fork" or (os.cpu_count() or 1) < 2,
    reason="patched jobs reach workers only by fork; needs >= 2 CPUs",
)


def _runtime_warnings(record):
    return [w for w in record if issubclass(w.category, RuntimeWarning)]


def _sigkill_self(payload):
    os.kill(os.getpid(), signal.SIGKILL)


class _PoolWontStart:
    def __init__(self, *args, **kwargs):
        raise OSError("no process can start here")


def _merged_bytes(directory, manifest, n_jobs):
    frontier = TrialFrontier.create(directory, manifest)
    report = run_sweep(frontier, n_jobs=n_jobs)
    assert report.all_done and report.failed == 0
    assert report.executed == len(manifest)
    with open(write_merged(frontier), "rb") as handle:
        return handle.read()


def test_drain_pulls_lazily_and_answers_in_order():
    pulled = []

    def tasks():
        for value in (4, -1, 9, 16, 25, 36, 49):
            pulled.append(value)
            yield value

    window = 2 * INFLIGHT_PER_WORKER
    outcomes = []
    for task, outcome in drain(math.sqrt, tasks(), 2, lambda: 0):
        # Never more tasks taken than answered plus one full window.
        assert len(pulled) <= len(outcomes) + window
        outcomes.append((task, outcome))
    assert [task for task, _ in outcomes] == [4, -1, 9, 16, 25, 36, 49]
    assert outcomes[0][1] == ("ok", 2.0)
    assert outcomes[1][1][:2] == ("error", "solve_failed")
    assert "ValueError" in outcomes[1][1][2]


def test_batch_pool_cannot_start(monkeypatch, gnp60):
    seeds = list(range(6))
    expected = run_trials(gnp60, "sleeping", seeds=seeds)
    monkeypatch.setattr(pool, "WorkerPool", _PoolWontStart)
    with pytest.warns(RuntimeWarning) as record:
        results = run_trials(gnp60, "sleeping", seeds=seeds, n_jobs=2)
    (warning,) = _runtime_warnings(record)
    assert "process pool unavailable" in str(warning.message)
    assert "remaining 6 trial(s)" in str(warning.message)
    assert len(results) == len(expected)
    for one, two in zip(results, expected):
        assert one.seed == two.seed
        assert one.rounds == two.rounds
        assert one.mis == two.mis
        assert one.node_stats == two.node_stats


def test_sweep_pool_cannot_start(monkeypatch, tmp_path):
    manifest = small_manifest()
    sequential = _merged_bytes(tmp_path / "seq", manifest, None)
    monkeypatch.setattr(pool, "WorkerPool", _PoolWontStart)
    with pytest.warns(RuntimeWarning) as record:
        degraded = _merged_bytes(tmp_path / "par", manifest, 2)
    (warning,) = _runtime_warnings(record)
    assert "process pool unavailable" in str(warning.message)
    assert degraded == sequential


@FORK_AND_TWO_CPUS
def test_sweep_all_workers_die_finishes_in_process(monkeypatch, tmp_path):
    """Every pool worker dies on its first trial; the driver releases its
    claims, warns once and finishes them in-process in the same call."""
    manifest = small_manifest()
    sequential = _merged_bytes(tmp_path / "seq", manifest, None)
    monkeypatch.setattr(runner, "_pool_execute", _sigkill_self)
    with pytest.warns(RuntimeWarning) as record:
        degraded = _merged_bytes(tmp_path / "par", manifest, 2)
    (warning,) = _runtime_warnings(record)
    assert "worker died" in str(warning.message)
    assert degraded == sequential
