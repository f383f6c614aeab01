"""E24 (part) -- multi-core sweep scaling on the frontier runner.

Measures what the resumable sweep machinery (PR 9) actually buys when
workers are added: the same seeded manifest drained with ``run_sweep``
at ``n_jobs`` in {1, 2, 4}, wall clocks recorded, merged result sets
required byte-identical across worker counts (parallelism is a
scheduling knob, never a measurement knob).  Alongside it, the
frontier's own cost at scale: sequential ``claim`` + ``done`` cycles
(stub payloads, no trial execution) on fresh frontiers of 12, 240 and
960 trials -- the number the claim-TTL default has to dominate, and
the one that must not grow with the manifest.  Each size is drained
:data:`CLAIM_COST_REPEATS` times, the sizes alternating, and the series
keep the minimum per-claim and per-``done`` cost: one drain reads the
disk's mood of the moment (on a 2-CPU Linux box, 0.06 ms per claim in
one run and 0.8 ms a few minutes later on the same tree); the minimum
reads the frontier.

The measured wall clocks size two defaults:

* ``repro.pool.INFLIGHT_PER_WORKER`` -- the bounded submission window
  (claims held in flight per worker).  Trial execution dominates
  submission latency by orders of magnitude, so a window of 2 (one
  running, one queued per worker) already keeps every worker fed.
* ``frontier.DEFAULT_CLAIM_TTL`` -- a claim and a ``done`` are each
  0.1-0.6 ms of disk bookkeeping at every measured manifest size (12 to
  960 trials, 2-CPU Linux box), while the TTL is 15 minutes: expiry can
  never race the lease machinery itself, only a genuinely dead worker.

The committed ``BENCH_sweep_scaling.json`` tracks the deterministic
series (trial counts, per-worker-count completions, the cross-count
result-identity bit, the claim-cost manifest sizes and their claim
counts); wall clocks, per-claim costs and speedups are
machine-dependent and stripped by ``check_artifacts.py``.
"""

import time

from conftest import record, timed_once, write_artifact

from repro.plan import RunPlan
from repro.sweeps import SweepManifest, TrialFrontier, run_sweep
from repro.sweeps.runner import merged_result_json

BASE_PLAN = RunPlan(
    algorithm="sleeping", family="gnp-sparse",
    engine="vectorized", rng="batched",
    graph_rng="batched", graph_source="arrays", result="arrays",
)
SIZES = (1_000, 2_000)
TRIALS = 6
SEED0 = 11
JOB_COUNTS = (1, 2, 4)

#: Manifest sizes of the claim-cost series (split evenly over SIZES).
CLAIM_COST_TRIALS = (12, 240, 960)
CLAIM_COST_REPEATS = 3


def claim_cost(directory, total):
    """``(claims, claim_s, done_s)``: per-cycle costs of draining a fresh
    ``total``-trial frontier with sequential ``claim`` + ``done``."""
    manifest = SweepManifest.expand(
        BASE_PLAN, sizes=SIZES, trials=total // len(SIZES), seed0=SEED0,
        name=f"bench-claim-cost-{total}",
    )
    frontier = TrialFrontier.create(directory, manifest)
    claimed = []
    claim_s = done_s = 0.0
    while True:
        start = time.perf_counter()
        spec = frontier.claim("bench")
        claim_s += time.perf_counter() - start
        if spec is None:
            break
        claimed.append(spec.key)
        start = time.perf_counter()
        frontier.done(spec.key, {"trial_key": spec.key})
        done_s += time.perf_counter() - start
    assert claimed == manifest.keys()
    return len(claimed), claim_s / len(claimed), done_s / len(claimed)


def test_sweep_scale_n_jobs(benchmark, tmp_path):
    manifest = SweepManifest.expand(
        BASE_PLAN, sizes=SIZES, trials=TRIALS, seed0=SEED0,
        name="bench-sweep-scaling",
    )

    def measure():
        walls, completed, merged = {}, {}, {}
        for jobs in JOB_COUNTS:
            frontier = TrialFrontier.create(
                tmp_path / f"jobs{jobs}", manifest
            )
            start = time.perf_counter()
            report = run_sweep(frontier, n_jobs=jobs)
            walls[jobs] = time.perf_counter() - start
            assert report.all_done and report.failed == 0, report.errors
            completed[jobs] = report.completed
            merged[jobs] = merged_result_json(frontier)

        # The frontier's own cost (pure disk bookkeeping, no trial
        # execution) at growing manifest sizes: fresh drains, the sizes
        # alternating, the minimum cost of each kept.
        drains = {total: [] for total in CLAIM_COST_TRIALS}
        for repeat in range(CLAIM_COST_REPEATS):
            for total in CLAIM_COST_TRIALS:
                drains[total].append(
                    claim_cost(tmp_path / f"claims{total}-{repeat}", total)
                )
        costs = {
            total: (
                runs[0][0],
                min(run[1] for run in runs),
                min(run[2] for run in runs),
            )
            for total, runs in drains.items()
        }
        return walls, completed, merged, costs

    (walls, completed, merged, costs), _ = timed_once(benchmark, measure)

    # Parallelism must not change a single measured byte.
    results_identical = all(
        merged[jobs] == merged[1] for jobs in JOB_COUNTS
    )
    assert results_identical

    speedup = {
        str(jobs): round(walls[1] / walls[jobs], 2) for jobs in JOB_COUNTS
    }
    claims_by_trials = {str(t): c[0] for t, c in costs.items()}
    per_claim_by_trials_s = {str(t): round(c[1], 6) for t, c in costs.items()}
    per_done_by_trials_s = {str(t): round(c[2], 6) for t, c in costs.items()}
    print()
    record(
        benchmark,
        trials_total=len(manifest),
        completed={str(j): c for j, c in completed.items()},
        wall_clock_by_jobs_s={
            str(j): round(w, 2) for j, w in walls.items()
        },
        speedup=speedup,
        per_claim_by_trials_s=per_claim_by_trials_s,
        per_done_by_trials_s=per_done_by_trials_s,
    )
    write_artifact(
        "sweep_scaling",
        config={
            "algorithm": "sleeping", "family": "gnp-sparse",
            "sizes": list(SIZES), "trials": TRIALS, "seed0": SEED0,
            "n_jobs": list(JOB_COUNTS),
            "claim_cost_trials": list(CLAIM_COST_TRIALS),
        },
        plan=BASE_PLAN,
        wall_clock_s=sum(walls.values()),
        trials_total=len(manifest),
        completed={str(j): c for j, c in completed.items()},
        results_identical=results_identical,
        wall_clock_by_jobs_s={
            str(j): round(w, 3) for j, w in walls.items()
        },
        speedup=speedup,
        claims_by_trials=claims_by_trials,
        per_claim_by_trials_s=per_claim_by_trials_s,
        per_done_by_trials_s=per_done_by_trials_s,
    )
