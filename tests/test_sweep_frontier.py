"""Fault-injection suite for the resumable sweep orchestration layer.

The headline guarantee under test: a sweep interrupted *any* way -- an
exception inside a trial, a SIGKILLed worker process, a SIGKILLed
driver, a deleted result artifact -- resumes to completion with a
merged result set **bit-identical** to an uninterrupted run, and
re-running a completed manifest executes zero trials.  The frontier's
state is its ``results/``, ``failed/`` and ``claims/`` directories; a
``frontier.log`` journal left by an older version is ignored.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import pytest

from repro.analysis.complexity import sweep
from repro.plan import RunPlan
from repro.sweeps import (
    CLAIMED,
    DONE,
    FAILED,
    FAULT_ENV,
    PENDING,
    FrontierCorruption,
    SweepManifest,
    TrialConflict,
    TrialFrontier,
    merged_result_json,
    run_sweep,
    strip_volatile,
    trial_key,
)

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src")

BASE_PLAN = RunPlan(
    algorithm="luby", family="gnp-sparse", rng="batched",
    graph_rng="batched", result="arrays",
)
SIZES = (24, 48)
TRIALS = 2


def small_manifest(name="test-sweep"):
    return SweepManifest.expand(
        BASE_PLAN, sizes=SIZES, trials=TRIALS, name=name
    )


@pytest.fixture
def manifest():
    return small_manifest()


@pytest.fixture
def baseline_json(manifest, tmp_path):
    """The uninterrupted run's canonical merged result set."""
    frontier = TrialFrontier.create(tmp_path / "baseline", manifest)
    report = run_sweep(frontier)
    assert report.all_done and report.failed == 0
    assert frontier.is_complete
    return merged_result_json(frontier)


def test_uninterrupted_sweep_matches_plain_sweep(manifest, tmp_path):
    """A manifest sweep measures the exact trials ``sweep()`` measures."""
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    report = run_sweep(frontier)
    assert report.executed == len(manifest) == report.completed
    reference = {
        (row.n, row.seed): strip_volatile(dataclasses.asdict(row))
        for row in sweep(
            sizes=SIZES, plan=BASE_PLAN, trials=TRIALS, seed0=0
        )
    }
    seen = 0
    for _, payload in frontier.iter_results():
        row = strip_volatile(payload["row"])
        assert row == reference[(row["n"], row["seed"])]
        seen += 1
    assert seen == len(manifest) == len(reference)


def test_injected_exception_then_resume_bit_identical(
    manifest, baseline_json, tmp_path
):
    """A trial that raises is recorded failed, re-issued, and resumes."""
    victim = manifest.keys()[1]

    def explode(spec):
        if spec.key == victim:
            raise RuntimeError("injected mid-trial failure")

    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    report = run_sweep(frontier, fault_hook=explode)
    assert report.failed == 1 and report.completed == len(manifest) - 1
    assert frontier.state(victim) == FAILED
    assert victim in report.errors[0]

    resumed = TrialFrontier.open(tmp_path / "s", manifest)
    report2 = run_sweep(resumed)
    assert report2.reissued_failed == 1
    assert report2.executed == 1 and report2.all_done
    assert merged_result_json(resumed) == baseline_json


def test_env_raise_fault_then_resume_bit_identical(
    manifest, baseline_json, tmp_path, monkeypatch
):
    """The ``REPRO_SWEEP_FAULT=raise:`` hook works through execute_trial."""
    victim = manifest.keys()[0]
    monkeypatch.setenv(FAULT_ENV, f"raise:{victim}")
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    report = run_sweep(frontier)
    assert report.failed == 1
    assert "SweepFaultInjected" in report.errors[0]

    monkeypatch.delenv(FAULT_ENV)
    report2 = run_sweep(TrialFrontier.open(tmp_path / "s"))
    assert report2.all_done and report2.executed == 1
    assert (
        merged_result_json(TrialFrontier.open(tmp_path / "s"))
        == baseline_json
    )


DRIVER_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    from test_sweep_frontier import small_manifest
    from repro.sweeps import TrialFrontier, run_sweep
    frontier = TrialFrontier.attach({sweep_dir!r}, small_manifest())
    run_sweep(frontier, n_jobs={n_jobs})
    print("DRIVER-SURVIVED")
    """
)


def _run_driver(sweep_dir, fault, n_jobs=None):
    """Run a sweep driver in a subprocess with ``REPRO_SWEEP_FAULT`` armed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + str(REPO / "tests")
    env[FAULT_ENV] = fault
    return subprocess.run(
        [
            sys.executable, "-c",
            DRIVER_SCRIPT.format(
                src=SRC, sweep_dir=str(sweep_dir), n_jobs=n_jobs
            ),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_sigkilled_driver_resumes_bit_identical(
    manifest, baseline_json, tmp_path
):
    """SIGKILL the driver after 2 completions; resume is bit-identical."""
    sweep_dir = tmp_path / "s"
    proc = _run_driver(sweep_dir, "driver-sigkill:2")
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "DRIVER-SURVIVED" not in proc.stdout

    partial = TrialFrontier.open(sweep_dir, manifest)
    done_before = [k for k, s in partial.states().items() if s == DONE]
    assert 0 < len(done_before) < len(manifest)

    report = run_sweep(partial)
    assert report.all_done
    assert report.executed == len(manifest) - len(done_before)
    assert merged_result_json(partial) == baseline_json


def test_sigkilled_pool_worker_resumes_bit_identical(
    manifest, baseline_json, tmp_path
):
    """SIGKILL a pool worker process mid-trial; resume is bit-identical.

    The killed worker fails its trial as ``worker_killed``; the driver
    releases every in-flight claim and degrades to sequential --
    where the armed fault then SIGKILLs the driver itself on the same
    trial, leaving a stale claim behind.  The resume (with an expired
    lease) must still complete to the uninterrupted byte-for-byte result.
    """
    victim = manifest.keys()[2]
    sweep_dir = tmp_path / "s"
    proc = _run_driver(sweep_dir, f"sigkill:{victim}", n_jobs=2)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "DRIVER-SURVIVED" not in proc.stdout

    # The dead driver's claim on the victim trial is still on disk;
    # a zero-TTL resume expires the lease and re-issues the trial.
    resumed = TrialFrontier.open(sweep_dir, manifest, claim_ttl=0.0)
    assert resumed.state(victim) in (PENDING, CLAIMED, DONE)
    report = run_sweep(resumed)
    assert report.all_done, resumed.status()
    assert merged_result_json(resumed) == baseline_json


def test_rerunning_completed_manifest_executes_nothing(manifest, tmp_path):
    """The zero-recompute guarantee, spy-verified."""
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    executions = []
    run_sweep(frontier, fault_hook=executions.append)
    assert len(executions) == len(manifest)

    reopened = TrialFrontier.open(tmp_path / "s", manifest)
    report = run_sweep(reopened, fault_hook=executions.append)
    assert report.executed == 0
    assert report.skipped_done == len(manifest)
    assert len(executions) == len(manifest)  # spy untouched by rerun


def test_full_drain_leaves_only_the_state_directories(manifest, tmp_path):
    """A drain writes results and nothing else: no journal, no claims."""
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    assert run_sweep(frontier).all_done
    assert not (tmp_path / "s" / "frontier.log").exists()
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
        "claims", "failed", "manifest.json", "results",
    ]
    assert not list((tmp_path / "s" / "claims").iterdir())
    assert len(list((tmp_path / "s" / "results").iterdir())) == len(manifest)


def test_old_journal_is_ignored_and_left_untouched(
    manifest, baseline_json, tmp_path
):
    """An older version's ``frontier.log`` is never read or rewritten.

    The journal below is garbled (garbage bytes, an unknown trial, a torn
    tail) and contradicts the directories: it says trial 0 is done after
    its artifact was deleted, and has no "done" for trial 1, which has
    one.  The state must follow the directories alone.
    """
    keys = manifest.keys()
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    run_sweep(frontier, max_trials=2)
    (tmp_path / "s" / "results" / f"{keys[0]}.json").unlink()
    log = tmp_path / "s" / "frontier.log"
    journal = (
        json.dumps({"event": "done", "trial": keys[0], "at": 0.0}) + "\n"
        + "\x00\x00 this is not JSON \x00\n"
        + json.dumps({"event": "failed", "trial": "deadbeef-7", "at": 0.0})
        + "\n" + '{"event": "done", "trial": "2fc'
    ).encode()
    log.write_bytes(journal)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reopened = TrialFrontier.open(tmp_path / "s", manifest)
    assert log.read_bytes() == journal
    assert reopened.states() == {
        key: DONE if key == keys[1] else PENDING for key in keys
    }
    report = run_sweep(reopened)
    assert report.all_done and report.executed == len(manifest) - 1
    assert merged_result_json(reopened) == baseline_json
    assert log.read_bytes() == journal
    assert not list((tmp_path / "s").glob("frontier.log.*"))


def test_lost_artifact_reissues_trial(manifest, tmp_path):
    """A trial whose result artifact is gone is not done."""
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    run_sweep(frontier)
    victim = manifest.keys()[0]
    (tmp_path / "s" / "results" / f"{victim}.json").unlink()
    reopened = TrialFrontier.open(tmp_path / "s", manifest)
    assert reopened.state(victim) == PENDING
    report = run_sweep(reopened)
    assert report.executed == 1 and report.all_done


def test_foreign_artifact_is_corruption(manifest, tmp_path):
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    run_sweep(frontier, max_trials=1)
    (tmp_path / "s" / "results" / "deadbeef-7.json").write_text("{}\n")
    with pytest.raises(FrontierCorruption, match="not in this manifest"):
        TrialFrontier.open(tmp_path / "s", manifest)


def test_double_claim_is_idempotent(manifest, tmp_path):
    """Two workers executing one trial (expired lease) merge to a no-op."""
    from repro.sweeps import execute_trial

    a = TrialFrontier.create(tmp_path / "s", manifest, claim_ttl=0.0)
    b = TrialFrontier.open(tmp_path / "s", manifest, claim_ttl=0.0)
    spec_a = a.claim("worker-a")
    # TTL 0: worker b immediately breaks a's lease on the same trial.
    spec_b = b.claim("worker-b", now=time.time() + 1.0)
    assert spec_a.key == spec_b.key
    payload_a = execute_trial(spec_a.plan, spec_a.seed)
    payload_b = execute_trial(spec_b.plan, spec_b.seed)
    assert a.done(spec_a.key, payload_a) is True
    # Identical series (modulo wall clocks): silently merged.
    assert b.done(spec_b.key, payload_b) is False
    assert a.state(spec_a.key) == DONE


def test_conflicting_double_completion_raises(manifest, tmp_path):
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    spec = frontier.claim("worker-a")
    frontier.done(spec.key, {"trial_key": spec.key, "row": {"x": 1}})
    with pytest.raises(TrialConflict, match="conflicting result"):
        frontier.done(spec.key, {"trial_key": spec.key, "row": {"x": 2}})
    # Wall-clock / provenance divergence alone is NOT a conflict.
    assert frontier.done(
        spec.key,
        {"trial_key": spec.key, "row": {"x": 1}, "wall_clock_s": 99.0,
         "worker": "elsewhere"},
    ) is False


def test_claim_lease_expires_and_reissues(manifest, tmp_path):
    frontier = TrialFrontier.create(
        tmp_path / "s", manifest, claim_ttl=10.0
    )
    spec = frontier.claim("doomed-worker")
    assert frontier.state(spec.key) == CLAIMED
    # Within the TTL the claim holds...
    assert frontier.expire_stale(now=time.time() + 5.0) == []
    # ...after it, any worker may break it.
    expired = frontier.expire_stale(now=time.time() + 11.0)
    assert expired == [spec.key]
    assert frontier.state(spec.key) == PENDING


def test_reissued_failure_is_claimed_first(manifest, tmp_path):
    """A failure the claim cursor already passed re-pends at its place."""
    keys = manifest.keys()
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    first = frontier.claim("w")
    frontier.fail(first.key, "injected")
    second = frontier.claim("w")
    frontier.done(second.key, _payload_for(second.key))
    assert [first.key, second.key] == keys[:2]
    assert frontier.claim("w").key == keys[2]
    assert frontier.reissue_failed() == [keys[0]]
    assert frontier.claim("w").key == keys[0]


def test_released_early_claim_is_reclaimed_first(manifest, tmp_path):
    keys = manifest.keys()
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    spec = frontier.claim("w")
    frontier.done(spec.key, _payload_for(spec.key))
    assert [frontier.claim("w").key, frontier.claim("w").key] == keys[1:3]
    frontier.release(keys[1])
    assert frontier.claim("w").key == keys[1]
    assert frontier.claim("w").key == keys[3]
    assert frontier.claim("w") is None


def test_reload_and_open_restart_from_first_unrecorded(manifest, tmp_path):
    keys = manifest.keys()
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    for _ in range(3):
        spec = frontier.claim("w")
        frontier.done(spec.key, _payload_for(spec.key))
    # A lost artifact un-records trial 1 behind both cursors.
    (tmp_path / "s" / "results" / f"{keys[1]}.json").unlink()
    assert TrialFrontier.open(tmp_path / "s").claim("a").key == keys[1]
    frontier.release(keys[1])
    frontier.reload()
    assert frontier.claim("w").key == keys[1]
    assert frontier.claim("w").key == keys[3]


def test_drain_rehashes_no_trial_key(tmp_path, monkeypatch):
    """Claims and ``keys()`` reuse the keys the manifest computed once:
    draining 240 trials hashes no plan inside either of them."""
    manifest = SweepManifest.expand(
        BASE_PLAN, sizes=SIZES, trials=120, name="rehash"
    )
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    calls = {"claim": 0, "keys": 0}
    hashed = {"claim": 0, "keys": 0}
    inside = []
    cache_key = RunPlan.cache_key

    def counting_cache_key(plan):
        if inside:
            hashed[inside[0]] += 1
        return cache_key(plan)

    def spy(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return method(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(RunPlan, "cache_key", counting_cache_key)
    monkeypatch.setattr(
        TrialFrontier, "claim", spy("claim", TrialFrontier.claim)
    )
    monkeypatch.setattr(SweepManifest, "keys", spy("keys", SweepManifest.keys))
    report = run_sweep(frontier, n_jobs=None)
    assert report.all_done and report.completed == len(manifest) == 240
    assert manifest.keys() == [trial.key for trial in manifest]
    assert calls == {"claim": len(manifest) + 1, "keys": 1}
    assert hashed == {"claim": 0, "keys": 0}


def test_create_refuses_existing_frontier(manifest, tmp_path):
    TrialFrontier.create(tmp_path / "s", manifest)
    with pytest.raises(FrontierCorruption, match="already contains"):
        TrialFrontier.create(tmp_path / "s", manifest)


def test_open_refuses_different_manifest(manifest, tmp_path):
    TrialFrontier.create(tmp_path / "s", manifest)
    other = SweepManifest.expand(
        BASE_PLAN, sizes=(24,), trials=1, name="other"
    )
    with pytest.raises(FrontierCorruption, match="manifest mismatch"):
        TrialFrontier.open(tmp_path / "s", other)


def test_manifest_expand_matches_sweep_seed_grid():
    """Manifest trials carry exactly sweep()'s (n, seed) grid."""
    from repro.analysis.complexity import trial_seeds

    manifest = small_manifest()
    got = [(t.plan.n, t.seed) for t in manifest]
    expected = [
        (n, s) for n in SIZES for s in trial_seeds(0, n, TRIALS)
    ]
    assert got == expected
    # Keys are stable across processes: pure function of (plan, seed).
    assert manifest.keys() == [
        trial_key(BASE_PLAN.replace(n=n, seed=0), s) for n, s in expected
    ]


def test_manifest_round_trip_and_version_gate(manifest, tmp_path):
    path = tmp_path / "m.json"
    manifest.save(path)
    loaded = SweepManifest.load(path)
    assert loaded.manifest_key() == manifest.manifest_key()
    assert loaded.keys() == manifest.keys()

    data = json.loads(path.read_text())
    data["manifest_version"] = 99
    with pytest.raises(ValueError, match="manifest_version"):
        SweepManifest.from_dict(data)
    data["manifest_version"] = 1
    data["trials"][0]["plan"] = 17
    with pytest.raises(ValueError, match="unknown plan index"):
        SweepManifest.from_dict(data)


def test_budget_stops_claiming_and_resume_finishes(manifest, tmp_path):
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    report = run_sweep(frontier, budget_s=0.0)
    assert report.budget_exhausted and report.executed == 0
    assert not frontier.is_complete
    report2 = run_sweep(TrialFrontier.open(tmp_path / "s"))
    assert report2.all_done and report2.executed == len(manifest)


# ---------------------------------------------------------------------------
# Property test: the frontier state machine never loses or duplicates a
# trial under any interleaving of claim/done/fail/expire/reissue/resume.
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

OPS = st.lists(
    st.sampled_from(
        ["claim", "done", "fail", "release", "expire", "reissue",
         "reload", "reopen"]
    ),
    max_size=40,
)


def _payload_for(key):
    # Deterministic per trial, so double completions are the no-op case.
    return {"trial_key": key, "row": {"value": sum(map(ord, key))}}


@given(ops=OPS)
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_frontier_state_machine_partitions_manifest(ops, tmp_path_factory):
    """After every op: states partition the manifest; done is monotone."""
    import tempfile

    manifest = small_manifest("property")
    keys = set(manifest.keys())
    with tempfile.TemporaryDirectory(
        dir=tmp_path_factory.getbasetemp()
    ) as tmp:
        frontier = TrialFrontier.create(
            Path(tmp) / "s", manifest, claim_ttl=1000.0
        )
        claimed = []
        done_so_far = set()
        base = time.time()
        for op in ops:
            if op == "claim":
                pending = frontier.pending_keys(now=base)
                spec = frontier.claim("prop-worker", now=base)
                # Claims go in manifest order: always the first pending.
                expected = pending[0] if pending else None
                assert (spec.key if spec else None) == expected
                if spec is not None:
                    claimed.append(spec.key)
            elif op == "done" and claimed:
                key = claimed.pop()
                frontier.done(key, _payload_for(key))
            elif op == "fail" and claimed:
                key = claimed.pop()
                frontier.fail(key, "injected")
            elif op == "release" and claimed:
                frontier.release(claimed.pop())
            elif op == "expire":
                for key in frontier.expire_stale(now=base + 2000.0):
                    claimed.remove(key)
            elif op == "reissue":
                frontier.reissue_failed()
            elif op == "reload":
                frontier.reload()
            elif op == "reopen":
                frontier = TrialFrontier.open(
                    Path(tmp) / "s", manifest, claim_ttl=1000.0
                )
            states = frontier.states(now=base)
            # Partition: every manifest trial in exactly one state,
            # nothing lost, nothing invented.
            assert set(states) == keys
            counts = frontier.status(now=base)
            assert (
                counts[PENDING] + counts[CLAIMED]
                + counts[DONE] + counts[FAILED]
            ) == len(manifest) == counts["total"]
            # Done trials are never lost, and always have an artifact.
            now_done = {k for k, s in states.items() if s == DONE}
            assert done_so_far <= now_done
            done_so_far = now_done
            for key in now_done:
                assert frontier.result(key)["trial_key"] == key
        # Whatever the interleaving, the frontier remains drainable.
        for key in frontier.expire_stale(now=base + 2000.0):
            claimed.remove(key)
        frontier.reissue_failed()
        while True:
            spec = frontier.claim("drain", now=base)
            if spec is None:
                break
            frontier.done(spec.key, _payload_for(spec.key))
        assert frontier.is_complete
