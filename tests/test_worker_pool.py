"""Failure paths of the one worker pool (:mod:`repro.pool`).

Batch, sweeps and the service share one pool, so its two death cases are
pinned here once: a SIGKILLed *parent* must take its workers with it
(no orphans idling forever), and a SIGKILLed *worker* under the batch
runner must cost a warning, never a result.
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import networkx as nx
import pytest

import repro.sim.batch as batch
from repro.sim.batch import run_trials

REPO = Path(__file__).resolve().parents[1]

POOL_DRIVER = textwrap.dedent(
    """
    import multiprocessing as mp, os, signal
    from repro.service import WorkerPool
    pool = WorkerPool(workers=2)
    print(*[child.pid for child in mp.active_children()], flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
    """
)

SWEEP_DRIVER = textwrap.dedent(
    """
    import multiprocessing as mp, sys
    from test_sweep_frontier import small_manifest
    from repro.sweeps import TrialFrontier, run_sweep

    def report_workers(spec):
        print(*[child.pid for child in mp.active_children()], flush=True)

    frontier = TrialFrontier.create(sys.argv[1], small_manifest())
    run_sweep(frontier, n_jobs=2, fault_hook=report_workers)
    print("DRIVER-SURVIVED")
    """
)


def _running(pid):
    """``pid`` exists and is not a zombie (``/proc/<pid>/stat`` state)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat"
)
@pytest.mark.parametrize("driver", ["pool", "sweep"])
def test_sigkilled_parent_leaves_no_worker(driver, tmp_path):
    """A parent SIGKILLed with a live 2-worker pool orphans nobody: each
    worker sees its parent's sentinel and exits within 5 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "tests")]
    )
    env["REPRO_SWEEP_FAULT"] = "driver-sigkill:2"
    script = POOL_DRIVER if driver == "pool" else SWEEP_DRIVER
    # Files, not pipes: a leaked worker would hold a pipe open forever.
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "w") as stdout, open(err, "w") as stderr:
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "sweep")],
            env=env, stdout=stdout, stderr=stderr, timeout=120,
        )
    assert proc.returncode == -signal.SIGKILL, err.read_text()
    printed = out.read_text()
    assert "DRIVER-SURVIVED" not in printed
    pids = {int(token) for token in printed.split()}
    assert len(pids) == 2, printed
    deadline = time.monotonic() + 5.0
    try:
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, (
                f"workers {sorted(p for p in pids if _running(p))} outlived "
                f"their SIGKILLed parent"
            )
            time.sleep(0.05)
    finally:
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def _sigkill_self(payload):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(
    mp.get_start_method() != "fork" or (os.cpu_count() or 1) < 2,
    reason="the patched chunk function reaches workers only by fork; "
    "needs >= 2 CPUs",
)
def test_batch_killed_worker_finishes_in_process(monkeypatch):
    """Every pool worker dies on its first chunk; the batch runner warns
    and runs the seeds it has not yielded in-process, bit-identically."""
    graph = nx.gnp_random_graph(60, 0.08, seed=3)
    seeds = list(range(6))
    expected = run_trials(graph, "sleeping", seeds=seeds)
    monkeypatch.setattr(batch, "_run_chunk", _sigkill_self)
    with pytest.warns(RuntimeWarning, match=r"remaining 6 trial\(s\)"):
        results = run_trials(graph, "sleeping", seeds=seeds, n_jobs=2)
    assert len(results) == len(expected)
    for one, two in zip(results, expected):
        assert one.seed == two.seed
        assert one.rounds == two.rounds
        assert one.mis == two.mis
        assert one.node_stats == two.node_stats
