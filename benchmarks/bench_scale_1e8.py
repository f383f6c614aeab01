"""E24 -- scale: breaking the 10^8-node barrier (profiled sampler).

One more decade past E21's 10^7 pin, with the memory discipline that
makes it possible held by tests instead of folklore:

* ``test_streaming_build_memory_scale_check`` -- the CI-sized memory
  pin: a ~10^6-edge family forced through tiny chunks under
  :func:`repro.profiling.profile_phases`, asserting the one-pass CSR
  build's *transient* traced memory stays chunk-bounded (O(n) node
  arrays + in-flight chunk temporaries) and that the profiler books the
  ``sample``/``csr_build`` phases the artifacts commit.  Runs in the
  per-PR benchmark smoke.
* ``test_gnp_1e8_sampler_pipeline`` -- a 10^8-node gnp-sparse graph
  sampled straight into CSR arrays through the chunked one-pass build,
  phase-profiled end to end, with the traced peak asserted under the
  documented envelope (docs/performance.md, "Scaling to 10^8": ~12 GB
  measured, 16 GB gate).  Writes ``BENCH_scale_1e8_sampler.json``
  with the per-phase ``phases`` block and both memory peaks.  (Excluded
  from the CI smoke budget via ``-k "not pipeline"``; the weekly scale
  job refreshes the committed artifact.)

The full 10^8 *trial* (engine + result on top of the sampler) needs
~27-36 GB and stays an extrapolated, documented envelope rather than a
CI artifact -- see docs/performance.md for the per-layer table.
"""

import tracemalloc

import numpy as np
from conftest import record, timed_once, write_artifact

from repro.graphs.arrays import make_family_arrays
from repro.plan import RunPlan
from repro.profiling import profile_phases
from repro.sim.rng import graph_stream_key

N = 100_000_000
SEED0 = 11

#: The documented traced-memory envelope for the 10^8 sampler (GB).
#: Measured ~12 GB on the reference container when the CSR still carried
#: a reverse-edge index (persistent CSR ~10.4 GB, ~7.2 GB without it,
#: plus chunk-bounded transients); the envelope leaves room for
#: allocator/runner variance while staying far under the 24 GB target
#: the full-pipeline extrapolation in docs/performance.md budgets from.
MEMORY_ENVELOPE_GB = 16.0

#: Spot-check size for the CSR symmetry invariant: a full check at 10^8
#: sorts a ~6.4 GB int64 copy of the reversed pairs, which roughly doubles
#: the peak the test is trying to pin.
PROBE = 4096


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


def test_gnp_1e8_sampler_pipeline(benchmark):
    def measure():
        with profile_phases(trace=True) as prof:
            ga = make_family_arrays(
                "gnp-sparse", N, seed=SEED0, graph_rng="batched"
            )
        return ga, prof

    (ga, prof), elapsed = timed_once(benchmark, measure)

    assert ga.n == N
    assert int(ga.deg.sum()) == ga.m
    # CSR symmetry, spot-checked (see PROBE): every probed edge (u, v)
    # has its reverse, found by a binary search for u in row v.  Row s
    # ends at row_ends[s], so an entry's row is found by binary search
    # too (ga.src would build 4 bytes per directed edge).
    row_ends = np.cumsum(ga.deg)
    probe = np.linspace(0, ga.m - 1, PROBE).astype(np.int64)
    sources = np.searchsorted(row_ends, probe, side="right")
    rows = ga.dst[probe]
    for u, v in zip(sources.tolist(), rows.tolist()):
        end = int(row_ends[v])
        row = ga.dst[end - int(ga.deg[v]) : end]
        j = int(np.searchsorted(row, u))
        assert j < len(row) and row[j] == u
    del row_ends

    summary = prof.summary()
    peak_traced_mb = max(
        entry.get("peak_traced_mb", 0.0) for entry in summary["phases"].values()
    )
    assert peak_traced_mb <= MEMORY_ENVELOPE_GB * 1024.0, (
        f"10^8 sampler peak {peak_traced_mb:.0f} MB exceeds the "
        f"{MEMORY_ENVELOPE_GB} GB documented envelope"
    )
    print()
    record(
        benchmark,
        directed_edges=ga.m,
        mean_degree=round(ga.m / N, 3),
        peak_traced_mb=round(peak_traced_mb, 1),
        peak_rss_mb=summary.get("peak_rss_mb"),
        wall_clock_s=round(elapsed, 2),
    )
    write_artifact(
        "scale_1e8_sampler",
        config={
            "family": "gnp-sparse", "n": N, "seed": SEED0,
            "graph_rng": "batched",
            "memory_envelope_gb": MEMORY_ENVELOPE_GB,
        },
        plan=RunPlan(
            family="gnp-sparse", n=N, seed=SEED0,
            graph_rng="batched", graph_source="arrays",
        ),
        wall_clock_s=elapsed,
        directed_edges=ga.m,
        mean_degree=round(ga.m / N, 3),
        phases=prof.report(),
        peak_traced_mb=round(peak_traced_mb, 1),
        peak_rss_mb=summary.get("peak_rss_mb"),
    )
