"""E17, E18, E20, E21, E24 -- scale: one driver for every decade, 10^3..10^8.

The paper's headline claim -- O(1) node-averaged awake complexity at
every n (Theorems 1-2) -- and what the pipeline costs to show it, one
decade at a time.  :data:`DECADES` is the table; each row names its n,
its stages and its checks:

======  =================  ===============================================
n       stages             baseline and extra checks
======  =================  ===============================================
10^5    pipeline           array-native vs the networkx-graph +
                           legacy-result pipeline, >= 1.7x; one graph,
                           so both sides must measure identical values
10^6    sampler, pipeline  v2 (batched) vs v1 (legacy) sampler, >= 2.0x;
                           different graphs by design (versioned streams)
10^7    sampler, pipeline  the artifact also carries the v1 seeding floor
10^8    sampler            traced peak under the 16 GB envelope; CSR
                           symmetry spot-checked on :data:`PROBE` edges
======  =================  ===============================================

* ``test_gnp_sampler[<n>]`` writes ``BENCH_scale_<n>_sampler.json``: a
  gnp-sparse graph sampled straight into CSR arrays on the v2 stream
  through the chunked build, its CSR checked symmetric.
* ``test_sleeping_pipeline[<n>]`` writes ``BENCH_scale_<n>.json``: one
  sleeping-MIS (Algorithm 1) trial end to end -- sample, simulate,
  validate, flatten -- valid, fully decided, node-averaged awake < 12.

Both run their measured stage twice (:func:`two_passes`): a timing pass
under an untraced phase profiler, which gives every wall clock, each
phase's ``calls`` and ``wall_s``, and ``unattributed_s`` (wall minus the
phases' sum); then a memory pass under ``profile_phases(trace=True)``,
whose per-phase ``peak_traced_mb`` joins the same ``phases`` block.
tracemalloc slows the engine by up to ~1.7x, so a traced pass times a
different program.  Baseline sides are timed untraced, with no memory
pass.

Around the table:

* ``test_sleeping_mis_scale_sweep_batched`` (E17) -- a 10^3 + 10^4
  sweep under ``rng="batched"`` on the array-native defaults, flat
  node-averaged awake, every output a valid MIS.
* ``test_streaming_build_memory_scale_check`` -- the CI-sized memory
  pin: the streaming CSR build's traced transients stay chunk-bounded.
* ``test_v1_seeding_floor`` -- bulk v1 ``"pernode"`` seeding
  (:func:`repro.sim.rng.node_rng_bulk`) >= 2x the per-node constructor
  loop at :data:`SEEDING_N` nodes, values bit-for-bit identical.  Its
  timings land in ``BENCH_scale_1e7.json``'s ``seeding`` block when it
  runs first in the same session; the 10^7 artifact is written whatever
  its verdict.

The per-PR CI smoke runs ``-k "not (pipeline or 1e8 or seeding)"``; the
weekly job runs ``-k "pipeline or 1e8 or seeding"`` and refreshes the
rest.  The full 10^8 *trial* needs ~27-36 GB and stays an extrapolated
envelope (docs/performance.md).
"""

import gc
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import pytest
from conftest import once, record, timed_once, write_artifact

from repro.analysis.complexity import sweep
from repro.graphs.arrays import make_family_arrays
from repro.plan import RunPlan
from repro.profiling import peak_rss_mb, profile_phases
from repro.sim.rng import graph_stream_key, node_rng, node_rng_bulk

SEED0 = 11

#: Spot-check size for the CSR symmetry check at 10^8: a full check
#: sorts a ~6.4 GB int64 copy of the reversed pairs, which roughly
#: doubles the peak the envelope pins.
PROBE = 4096

#: The v1 seeding micro-bench: bulk path (shared prefix bytes, GC
#: paused, C-level ``_random.Random``) vs the historical
#: one-``random.Random``-per-node loop.  The old loop's cost is
#: superlinear (every gc-tracked stream joins the generational scans
#: that fire while the next ones are built), so the gap widens with n.
#: Each side holds ~2.5 KB of stream state per node, ~5 GB at this size.
SEEDING_N = 2_000_000
SEEDING_FLOOR = 2.0

SWEEP_PLAN = RunPlan(
    algorithm="sleeping", family="gnp-sparse",
    engine="vectorized", rng="batched", result="auto",
)
BATCHED_PLAN = SWEEP_PLAN.replace(
    graph_rng="batched", graph_source="arrays", result="arrays",
)


@dataclass
class Decade:
    tag: str  # names the artifacts and the test ids
    n: int
    sampler: bool = False  # measure the sampler stage alone
    plan: Optional[RunPlan] = None  # measure one trial of this plan
    #: ``{side: plan knobs}``: the measured side first, then the
    #: baseline, each ``plan.replace(**knobs)``.
    sides: Dict[str, Dict[str, str]] = field(default_factory=dict)
    floor: Optional[float] = None  # measured side >= floor x baseline
    identical: bool = False  # both sides sample one graph
    seeding: bool = False  # the artifact carries the seeding block
    probe: Optional[int] = None  # spot-check symmetry on this many edges
    envelope_gb: Optional[float] = None  # sampler traced-peak bound


DECADES = (
    Decade(
        "1e5", 100_000, plan=SWEEP_PLAN, floor=1.7, identical=True,
        sides={
            "array_native": {"graph_source": "arrays", "result": "arrays"},
            "legacy": {"graph_source": "networkx", "result": "legacy"},
        },
    ),
    Decade(
        "1e6", 1_000_000, sampler=True, plan=BATCHED_PLAN, floor=2.0,
        sides={
            "batched_sampler": {"graph_rng": "batched"},
            "legacy_sampler": {"graph_rng": "legacy"},
        },
    ),
    Decade("1e7", 10_000_000, sampler=True, plan=BATCHED_PLAN, seeding=True),
    Decade("1e8", 100_000_000, sampler=True, probe=PROBE, envelope_gb=16.0),
)


def two_passes(stage):
    """``(output, wall_s, phases, unattributed_s)`` of ``stage()``.

    The timing pass runs with tracemalloc off and its output is dropped
    before the memory pass, so two outputs never coexist; the returned
    output is the memory pass's.  Both passes must make the same phase
    calls.
    """
    gc.collect()
    with profile_phases() as timing:
        assert not tracemalloc.is_tracing(), "timing pass must run untraced"
        start = time.perf_counter()
        stage()
        wall_s = time.perf_counter() - start
    gc.collect()
    with profile_phases(trace=True) as memory:
        output = stage()
    phases = timing.report()
    for name, entry in memory.report().items():
        assert entry["calls"] == phases[name]["calls"], name
        phases[name]["peak_traced_mb"] = entry["peak_traced_mb"]
    unattributed_s = wall_s - sum(e["wall_s"] for e in phases.values())
    return output, wall_s, phases, unattributed_s


def check_symmetric(ga, probe=None):
    """Every directed edge ``(u, v)`` has its reverse ``(v, u)``.

    ``probe=None`` checks all edges: the sorted reversed pairs are the
    pairs.  Otherwise ``probe`` evenly spaced edges are looked up, each
    by a binary search for ``u`` in row ``v`` (row ``s`` ends at
    ``row_ends[s]``, so ``ga.src`` is never built).
    """
    n = ga.n
    assert int(ga.deg.sum()) == ga.m
    if probe is None:
        src = ga.src
        forward = src.astype(np.int64) * n + ga.dst
        reverse = ga.dst.astype(np.int64) * n + src
        reverse.sort()
        assert (reverse == forward).all()
        return
    row_ends = np.cumsum(ga.deg)
    edges = np.linspace(0, ga.m - 1, probe).astype(np.int64)
    sources = np.searchsorted(row_ends, edges, side="right")
    for u, v in zip(sources.tolist(), ga.dst[edges].tolist()):
        end = int(row_ends[v])
        row = ga.dst[end - int(ga.deg[v]) : end]
        j = int(np.searchsorted(row, u))
        assert j < len(row) and row[j] == u


def test_sleeping_mis_scale_sweep_batched(benchmark):
    sizes, trials = (1_000, 10_000), 3

    def measure():
        return sweep(plan=SWEEP_PLAN, sizes=sizes, trials=trials, seed0=SEED0)

    rows, elapsed = timed_once(benchmark, measure)

    assert all(row.valid for row in rows)
    assert all(row.undecided == 0 for row in rows)
    by_size = {
        n: [r.node_averaged_awake for r in rows if r.n == n] for n in sizes
    }
    means = {n: sum(v) / len(v) for n, v in by_size.items()}
    print()
    record(
        benchmark,
        node_avg_awake={n: round(m, 2) for n, m in means.items()},
        total_trials=len(rows),
        wall_clock_s=round(elapsed, 2),
    )
    # O(1) node-averaged awake holds out to 10^4: a 10x size jump moves
    # the mean by far less than any growing function would.
    assert means[10_000] <= 1.5 * means[1_000]
    assert means[10_000] < 12.0
    write_artifact(
        "scale_sweep",
        config={
            "algorithm": "sleeping", "family": "gnp-sparse",
            "sizes": list(sizes), "trials": trials, "seed0": SEED0,
            "engine": "vectorized", "rng": "batched",
            "graph_source": "auto", "result": "auto",
        },
        plan=SWEEP_PLAN,
        wall_clock_s=elapsed,
        node_avg_awake={str(n): round(m, 3) for n, m in means.items()},
    )


def test_streaming_build_memory_scale_check(benchmark, monkeypatch):
    """Chunk-bounded transients + phase attribution, CI-sized."""
    import repro.graphs.arrays as arrays_mod

    n, p = 2000, 0.5  # ~10^6 undirected pairs
    chunk = 1 << 11
    monkeypatch.setattr(arrays_mod, "GNP_V2_CHUNK", chunk)

    def measure():
        with profile_phases(trace=True) as prof:
            ga = arrays_mod.gnp_arrays_v2(n, p, seed=5)
            current, peak = tracemalloc.get_traced_memory()
        return ga, prof, current, peak

    (ga, prof, current, peak), _ = timed_once(benchmark, measure)

    assert ga.m > 1_500_000  # really a dense 10^6-edge family
    # Same bound tier-1 pins in tests/test_engine_memory.py: O(n) node
    # arrays plus a generous multiple of the in-flight chunk.
    transient_bound = 8 * 64 * n + 256 * chunk
    assert peak - current <= transient_bound, (
        f"streaming build transient {peak - current} exceeds "
        f"{transient_bound} (peak {peak}, persistent {current})"
    )
    report = prof.report()
    assert {"sample", "csr_build"} <= set(report)
    # One pass over the chunk stream: one sample call per chunk pulled,
    # plus the pull that finds the stream exhausted.
    chunks = arrays_mod._gnp_v2_pair_chunks(
        n, p, np.uint64(graph_stream_key(5)), chunk
    )
    assert report["sample"]["calls"] == sum(1 for _ in chunks) + 1
    print()
    record(
        benchmark,
        directed_edges=ga.m,
        transient_bytes=peak - current,
        sample_calls=report["sample"]["calls"],
    )


@pytest.fixture(scope="module")
def seeding():
    """The seeding block of ``BENCH_scale_1e7.json``: the floor, plus the
    timings :func:`test_v1_seeding_floor` adds when it runs."""
    return {"speedup_floor": SEEDING_FLOOR}


def test_v1_seeding_floor(benchmark, seeding):
    """Bulk v1 seeding >= 2x the per-node constructor loop.

    Defined before the decade tests so that, in one session, it runs
    first on a clean heap (a 10^7 trial leaves gigabytes of allocator
    churn behind).  The old loop runs once; then, with its streams
    freed, the bulk path runs twice and keeps the faster.  Draws at four
    probe nodes pin bit-for-bit equality of the streams.
    """
    probe = (0, 1, SEEDING_N // 2, SEEDING_N - 1)

    def measure():
        gc.collect()
        start = time.perf_counter()
        old = [node_rng(SEED0, i) for i in range(SEEDING_N)]
        old_s = time.perf_counter() - start
        old_draws = [old[i].random() for i in probe]
        del old
        gc.collect()
        bulk_s = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            rngs = node_rng_bulk(SEED0, range(SEEDING_N))
            bulk_s = min(bulk_s, time.perf_counter() - start)
            new_draws = [rngs[i].random() for i in probe]
            assert new_draws == old_draws, "bulk seeding changed v1 values"
            del rngs
            gc.collect()
        return old_s, bulk_s

    old_s, bulk_s = once(benchmark, measure)

    speedup = old_s / bulk_s
    seeding.update(
        old_s=round(old_s, 3), bulk_s=round(bulk_s, 3),
        speedup=round(speedup, 3),
    )
    print()
    record(benchmark, **seeding)
    assert speedup >= SEEDING_FLOOR, (
        f"bulk v1 seeding only {speedup:.2f}x vs the per-node "
        f"constructor loop at n={SEEDING_N} (floor {SEEDING_FLOOR}x)"
    )


@pytest.mark.parametrize(
    "decade", [d for d in DECADES if d.sampler], ids=lambda d: d.tag
)
def test_gnp_sampler(benchmark, decade):
    n = decade.n

    def sample():
        return make_family_arrays(
            "gnp-sparse", n, seed=SEED0, graph_rng="batched"
        )

    ga, wall_s, phases, unattributed_s = once(
        benchmark, lambda: two_passes(sample)
    )

    assert ga.n == n
    check_symmetric(ga, decade.probe)
    peak_traced_mb = max(e["peak_traced_mb"] for e in phases.values())
    if decade.envelope_gb is not None:
        assert peak_traced_mb <= decade.envelope_gb * 1024.0, (
            f"sampler peak at n={n} {peak_traced_mb:.0f} MB "
            f"exceeds the {decade.envelope_gb} GB documented envelope"
        )
    measured = dict(
        wall_clock_s=round(wall_s, 3),
        unattributed_s=round(unattributed_s, 3),
        directed_edges=ga.m,
        mean_degree=round(ga.m / n, 3),
        peak_traced_mb=round(peak_traced_mb, 1),
        peak_rss_mb=peak_rss_mb(),
    )
    print()
    record(benchmark, **measured)
    config = {
        "family": "gnp-sparse", "n": n, "seed": SEED0, "graph_rng": "batched",
    }
    if decade.envelope_gb is not None:
        config["memory_envelope_gb"] = decade.envelope_gb
    write_artifact(
        f"scale_{decade.tag}_sampler",
        config=config,
        plan=RunPlan(
            family="gnp-sparse", n=n, seed=SEED0,
            graph_rng="batched", graph_source="arrays",
        ),
        phases=phases,
        **measured,
    )


@pytest.mark.parametrize(
    "decade", [d for d in DECADES if d.plan], ids=lambda d: d.tag
)
def test_sleeping_pipeline(benchmark, seeding, decade):
    n = decade.n
    plans = {
        side: decade.plan.replace(**knobs)
        for side, knobs in decade.sides.items()
    } or {"pipeline": decade.plan}
    side, *baselines = plans

    def trial(plan):
        return sweep(plan=plan, sizes=(n,), trials=1, seed0=SEED0)[0]

    def measure():
        timed = {}
        for name in baselines:
            start = time.perf_counter()
            row = trial(plans[name])
            timed[name] = (row, time.perf_counter() - start)
        row, wall_s, phases, unattributed_s = two_passes(
            lambda: trial(plans[side])
        )
        timed[side] = (row, wall_s)
        return timed, phases, unattributed_s

    timed, phases, unattributed_s = once(benchmark, measure)

    rows = {name: row for name, (row, _) in timed.items()}
    for row in rows.values():
        assert (row.valid, row.undecided) == (True, 0)
        # The paper's claim at this n: O(1) node-averaged awake.
        assert row.node_averaged_awake < 12.0
    if decade.identical:
        fields = (
            "node_averaged_awake", "worst_case_awake",
            "node_averaged_rounds", "worst_case_rounds",
            "total_messages", "total_bits", "valid",
        )
        measures = {
            tuple(getattr(row, f) for f in fields) for row in rows.values()
        }
        assert len(measures) == 1, "the pipelines measured different values"
    awake = {name: round(r.node_averaged_awake, 3) for name, r in rows.items()}
    wall_s = timed[side][1]
    measured = dict(
        wall_clock_s=round(wall_s, 3),
        unattributed_s=round(unattributed_s, 3),
        # One graph, one value; different graphs, one value per side.
        node_avg_awake=awake if len(awake) > 1 and not decade.identical
        else awake[side],
    )
    # The config names the plan's non-default knobs, less those the
    # sides vary.
    default = RunPlan().to_dict()
    varied = decade.sides.get(side, {})
    config = {
        knob: value for knob, value in decade.plan.to_dict().items()
        if value != default[knob] and knob not in varied
    }
    config.update(sizes=[n], trials=1, seed0=SEED0)
    if baselines:
        speedup = timed[baselines[0]][1] / wall_s
        config["compared"] = decade.sides
        measured.update(
            {f"{name}_pipeline_s": round(t, 3) for name, (_, t) in timed.items()},
            speedup=round(speedup, 3), speedup_floor=decade.floor,
        )
    print()
    record(benchmark, **measured)
    if baselines:
        assert speedup >= decade.floor, (
            f"{side} trial at n={n} only {speedup:.2f}x vs "
            f"{baselines[0]} (floor {decade.floor}x)"
        )
    if decade.seeding:
        config["seeding"] = {"n": SEEDING_N, "rng": "pernode"}
        measured["seeding"] = dict(seeding)
    write_artifact(
        f"scale_{decade.tag}",
        config=config,
        plan=plans if baselines else decade.plan,
        phases=phases,
        **measured,
    )
