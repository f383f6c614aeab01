"""Peak-memory regressions: EngineScratch reuse across batched trials.

The batch runner's scaling story rests on one claim: running many
sequential trials costs the buffers of *one* trial, because every engine
construction borrows its node- and edge-sized state arrays from the same
:class:`repro.sim.fast_engine.EngineScratch` pool.  These tests pin that
claim two ways -- by object identity (consecutive engines literally hold
the same numpy buffers) and by ``tracemalloc`` (the traced heap does not
grow trial over trial inside ``iter_trials``), so a refactor that quietly
starts allocating per trial fails here instead of surfacing as an OOM at
n = 10^6.
"""

import gc
import tracemalloc

import pytest

import repro.sim.phase_loop as phase_loop
from repro.graphs.arrays import make_family_arrays
from repro.graphs.csr import GraphArrays
from repro.sim.batch import iter_trials
from repro.sim.fast_engine import EngineScratch, VectorizedEngine
from repro.sim.fast_phased import PhasedVectorizedEngine

from helpers import argsort_csr

#: The scratch-borrowed per-node state buffers of the sleeping engine
#: (``sleep`` is derived at result build, so it borrows no buffer),
#: including the phase loop's state for Algorithm 2's numpy base cases.
SLEEPING_BUFFERS = (
    "in_mis", "awake", "tx", "rx", "idle", "msent", "bits",
    "mrecv", "decision_id", "awake_at_decision", "base_truncated",
    "_sub_mask", "_nbr_mask", "_local_index", "_ctr",
    "finish", "live_cnt", "_combined", "_prio_bits",
)

#: The scratch-borrowed per-node state buffers of the phased engine,
#: including the node frontier's global-to-local index map (``awake``,
#: ``tx``, ``idle`` and ``awake_at_decision`` are derived at result
#: build, so they borrow no buffer).
PHASED_BUFFERS = (
    "in_mis", "rx", "msent", "bits", "mrecv", "decision_round", "finish",
    "live_cnt", "_combined", "_prio_bits", "_ctr", "_local_index",
)

#: Additional scratch buffers of the marking (ghaffari) phased engine.
GHAFFARI_BUFFERS = ("_marked", "_exponent")


class TestBufferIdentity:
    def test_sleeping_engine_reuses_scratch_buffers(self):
        scratch = EngineScratch()
        ga = make_family_arrays("gnp-sparse", 400, seed=1)
        first = VectorizedEngine(
            ga, "fast-sleeping", seed=0, rng="batched", scratch=scratch
        )
        buffers = {name: getattr(first, name) for name in SLEEPING_BUFFERS}
        first.run()
        second = VectorizedEngine(
            ga, "fast-sleeping", seed=1, rng="batched", scratch=scratch
        )
        for name, buf in buffers.items():
            assert getattr(second, name) is buf, (
                f"{name} was reallocated instead of reused from scratch"
            )

    @pytest.mark.parametrize(
        "algorithm,names",
        [
            ("luby", PHASED_BUFFERS),
            ("ghaffari", PHASED_BUFFERS + GHAFFARI_BUFFERS),
        ],
    )
    def test_phased_engine_reuses_scratch_buffers(self, algorithm, names):
        scratch = EngineScratch()
        ga = make_family_arrays("gnp-sparse", 400, seed=1)
        first = PhasedVectorizedEngine(
            ga, algorithm, seed=0, rng="batched", scratch=scratch
        )
        buffers = {name: getattr(first, name) for name in names}
        first.run()
        second = PhasedVectorizedEngine(
            ga, algorithm, seed=1, rng="batched", scratch=scratch
        )
        for name, buf in buffers.items():
            assert getattr(second, name) is buf, (
                f"{name} was reallocated instead of reused from scratch"
            )

    def test_engine_state_is_node_sized(self):
        """No engine borrows an edge-sized buffer: live sets are derived
        from in-loop membership, so a scratch shared by fast-sleeping and
        luby runs holds only node-sized state."""
        scratch = EngineScratch()
        ga = make_family_arrays("gnp-sparse", 400, seed=1)
        assert ga.m not in (0, ga.n)  # lengths m and n are distinguishable
        for engine, algorithm in (
            (VectorizedEngine, "fast-sleeping"),
            (PhasedVectorizedEngine, "luby"),
        ):
            for seed in range(2):
                engine(
                    ga, algorithm, seed=seed, rng="batched", scratch=scratch
                ).run()
        sizes = {name: buf.shape for name, buf in scratch._buffers.items()}
        assert sizes, "the engines borrowed nothing from the scratch"
        edge_sized = [
            name for name, shape in sizes.items() if ga.m in shape
        ]
        assert not edge_sized, (
            f"edge-sized scratch buffers are back: {edge_sized}"
        )

    def test_shape_change_reallocates(self):
        """A different graph size genuinely needs fresh buffers."""
        scratch = EngineScratch()
        small = VectorizedEngine(
            make_family_arrays("gnp-sparse", 50, seed=1),
            "fast-sleeping", seed=0, rng="batched", scratch=scratch,
        )
        big = VectorizedEngine(
            make_family_arrays("gnp-sparse", 80, seed=1),
            "fast-sleeping", seed=0, rng="batched", scratch=scratch,
        )
        assert small.awake is not big.awake
        assert len(big.awake) == 80

    def test_reused_buffers_still_give_correct_results(self):
        """Reuse must be invisible: a trial after a dirty run equals a
        trial on a fresh scratch, bit for bit."""
        ga = make_family_arrays("gnp-sparse", 300, seed=2)
        shared = EngineScratch()
        VectorizedEngine(
            ga, "fast-sleeping", seed=0, rng="batched", scratch=shared
        ).run()
        reused = VectorizedEngine(
            ga, "fast-sleeping", seed=5, rng="batched", scratch=shared
        ).run()
        fresh = VectorizedEngine(
            ga, "fast-sleeping", seed=5, rng="batched", scratch=EngineScratch()
        ).run()
        assert reused.summary() == fresh.summary()
        assert reused.mis == fresh.mis


class TestTracedMemory:
    @pytest.mark.parametrize("algorithm", ["fast-sleeping", "luby"])
    def test_iter_trials_allocations_flat_per_trial(self, algorithm):
        """Streaming trials through one scratch must not grow the heap.

        Measures the traced allocation level after each of 8 trials on a
        shared 2000-node graph; beyond the first trial (which populates
        the scratch pool and lazy per-graph caches) the level must stay
        flat to within a small slack, i.e. no per-trial buffer leaks.
        """
        ga = make_family_arrays("gnp-sparse", 2000, seed=3)
        ga.id_bits  # warm the per-graph lazy caches outside the window

        def consume(count):
            for result in iter_trials(
                ga, algorithm, seeds=range(count),
                engine="vectorized", rng="batched", result="arrays",
            ):
                assert result.n == 2000

        consume(2)  # warm imports and code paths
        gc.collect()
        tracemalloc.start()
        try:
            levels = []
            for result in iter_trials(
                ga, algorithm, seeds=range(8),
                engine="vectorized", rng="batched", result="arrays",
            ):
                assert result.n == 2000
                del result  # the sweep pattern: aggregate, then drop
                gc.collect()
                levels.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        slack = 128 * 1024
        assert levels[-1] <= levels[1] + slack, (
            f"traced memory grew across trials: {levels}"
        )


class TestLazyNodeIds:
    def test_array_native_node_ids_is_a_range(self):
        """Array-native graphs serve ``node_ids`` as a range, not a list."""
        ga = make_family_arrays("gnp-sparse", 500, seed=1)
        assert ga._ids_are_range
        assert isinstance(ga.node_ids, range)
        assert list(ga.node_ids) == list(range(500))
        assert ga.node_ids[499] == 499 and len(ga.node_ids) == 500
        # Graphs with arbitrary labels keep the real sorted list.
        labeled = GraphArrays({"b": ("a",), "a": ("b",)})
        assert not labeled._ids_are_range
        assert labeled.node_ids == ["a", "b"]

    def test_node_ids_not_materialized_at_scale(self):
        """The legacy-compat id list must never be allocated eagerly.

        At n = 10^7 a materialized ``list(range(n))`` costs ~400 MB --
        roughly 5x the graph's own int64 degree array.  Pin the build of
        an (edgeless) 10^6-node array-native graph to the ballpark of its
        numpy buffers: the 8 MB ``deg`` array plus slack, an order of
        magnitude below what any eager id list would add (~40 MB).
        """
        n = 10**6
        gc.collect()
        tracemalloc.start()
        try:
            ga = GraphArrays.from_edges(n, [], [])
            ids = ga.node_ids  # serving the view must stay allocation-free
            assert len(ids) == n
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        deg_bytes = ga.deg.nbytes  # the one O(n) buffer this graph holds
        assert deg_bytes == 8 * n
        slack = 2 * 1024 * 1024
        assert peak <= deg_bytes + slack, (
            f"building a {n}-node array-native graph traced {peak} bytes "
            f"(expected ~{deg_bytes}): node_ids is materialized again?"
        )

    def test_lazy_ids_survive_pickling(self):
        """The pool wire format ships no id list for range-id graphs."""
        import pickle

        ga = make_family_arrays("gnp-sparse", 300, seed=4)
        clone = pickle.loads(pickle.dumps(ga))
        assert clone._node_ids is None and clone._ids_are_range
        assert isinstance(clone.node_ids, range)
        assert list(clone.node_ids) == list(ga.node_ids)
        import numpy as np

        for field in ("src", "dst", "deg"):
            assert np.array_equal(getattr(clone, field), getattr(ga, field))


class TestNoStoredSrc:
    """``GraphArrays`` keeps ``dst`` and ``deg`` only; ``src`` is derived
    on demand from the row lengths."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_family_arrays("gnp-sparse", 500, seed=1),
            lambda: make_family_arrays(
                "gnp-dense", 300, seed=2, graph_rng="batched"
            ),
            lambda: GraphArrays({"b": ("a", "c"), "a": ("b",), "c": ("b",)}),
            lambda: GraphArrays.from_edges(6, [], []),
        ],
        ids=["from-edges", "chunked", "labels", "edgeless"],
    )
    def test_graph_stores_no_src(self, build):
        import numpy as np

        ga = build()
        assert "src" not in GraphArrays.__slots__
        assert ga.nbytes() == ga.dst.nbytes + ga.deg.nbytes
        assert ga.m == len(ga.dst)
        want = np.repeat(np.arange(ga.n, dtype=np.int32), ga.deg)
        assert ga.src.dtype == np.int32
        np.testing.assert_array_equal(ga.src, want)
        assert ga.src is not ga.src  # built per access, never cached


class TestChunkedCsrBuild:
    def test_streaming_build_transient_memory_is_chunk_bounded(
        self, monkeypatch
    ):
        """The chunked CSR build must hold chunk-sized (plus O(n)
        node-array) transients, never pair-count-sized ones.

        A dense ~10^6-edge family forced through tiny chunks and row
        groups: with ~2x10^3 pairs in flight at a time, the peak traced
        memory above the persistent CSR arrays has to stay orders of
        magnitude below the ~50 MB a build from the whole buffered pair
        list transiently holds for this graph (pair buffers, composite
        keys, argsort).  The stream's ``lo`` values are kept in the
        buffer that becomes ``dst``, so no graph-sized transient is
        left: the documented bound (docs/performance.md, "Scaling to
        10^7") is O(n) node arrays plus ~64 bytes per in-flight pair.
        At the default ``CACHE_BLOCK`` the two threads' row groups hold
        ~1.5 MB here, so the groups are cut to the chunk size too.
        """
        import repro.graphs.arrays as arrays_mod
        import repro.graphs.csr as csr_mod

        n, p = 2000, 0.5  # ~10^6 undirected pairs
        chunk = 1 << 11
        monkeypatch.setattr(arrays_mod, "GNP_V2_CHUNK", chunk)
        monkeypatch.setattr(csr_mod, "CACHE_BLOCK", chunk)
        gc.collect()
        tracemalloc.start()
        try:
            ga = arrays_mod.gnp_arrays_v2(n, p, seed=5)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ga.m > 1_500_000  # really a dense 10^6-edge family
        # O(n) node arrays (degree splits, prefix starts, carry) plus a
        # generous multiple of the in-flight chunk temporaries.
        node_arrays = 8 * 64 * n
        transient_bound = node_arrays + 256 * chunk
        assert peak - current <= transient_bound, (
            f"streaming build transient {peak - current} exceeds "
            f"{transient_bound} (peak {peak}, persistent {current})"
        )

    def test_streaming_build_equals_one_shot(self, monkeypatch):
        """Small chunks build the same CSR as the argsort reference does
        from the whole pair list at once."""
        import numpy as np

        import repro.graphs.arrays as arrays_mod

        monkeypatch.setattr(arrays_mod, "GNP_V2_CHUNK", 1 << 11)
        streamed = arrays_mod.gnp_arrays_v2(500, 0.3, seed=9)
        fwd = streamed.src < streamed.dst
        one_shot = argsort_csr(500, streamed.src[fwd], streamed.dst[fwd])
        for field, want in zip(("src", "dst", "deg"), one_shot):
            assert np.array_equal(want, getattr(streamed, field)), field


class TestNoCopyEngineHandoff:
    """The engines consume a prebuilt CSR *in place*: streaming a graph
    through the bounded-memory build only pays off if the engine then
    rides the builder's arrays instead of copying them."""

    def test_sleeping_engine_holds_the_builders_arrays(self):
        ga = make_family_arrays("gnp-sparse", 400, seed=7)
        eng = VectorizedEngine(ga, "fast-sleeping", seed=0, rng="batched")
        assert eng.arrays is ga
        for field in ("dst", "deg"):
            assert getattr(eng, field) is getattr(ga, field), (
                f"engine copied {field} instead of consuming it in place"
            )

    def test_phased_engine_holds_the_builders_arrays(self):
        ga = make_family_arrays("gnp-sparse", 400, seed=7)
        eng = PhasedVectorizedEngine(ga, "luby", seed=0, rng="batched")
        assert eng.arrays is ga
        for field in ("dst", "deg"):
            assert getattr(eng.arrays, field) is getattr(ga, field)

    def test_engine_construction_does_not_duplicate_the_csr(self):
        """tracemalloc pin: constructing the sleeping engine on a dense
        prebuilt graph allocates O(n) node buffers and no per-edge state
        at all -- never a copy of the int32 ``dst`` column (4m extra
        traced bytes), nor a 1 byte/edge mask."""
        n, p = 2000, 0.5
        ga = make_family_arrays("gnp-dense", n, seed=7)
        assert ga.m > 1_500_000
        ga.id_bits  # warm per-graph lazy caches outside the window
        gc.collect()
        tracemalloc.start()
        try:
            eng = VectorizedEngine(ga, "fast-sleeping", seed=0, rng="batched")
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del eng
        node_buffers = 32 * 8 * n  # generous: every per-node scratch array
        bound = node_buffers + 1024 * 1024
        assert bound < ga.m  # a 1 byte/edge buffer cannot hide in the slack
        assert peak <= bound, (
            f"engine construction traced {peak} bytes (bound {bound}): "
            f"is the CSR being copied instead of consumed in place?"
        )


class TestRunPeakPerEdge:
    """Peak traced memory of a whole dense run, per directed edge.

    The engines keep no persistent per-edge state (live sets are derived
    from in-loop membership); everything edge-sized is a transient of one
    recursion call or one phase (a call's row masks and its sub-calls'
    filtered rows, frontier-local endpoint ids, delivery masks).  Received messages are
    counted per node, so no 8-byte counter per edge exists, and the top
    call and phase 0 read the CSR columns in place instead of gathering
    copies of them.  The bounds sit well below what an int64 per-edge
    counter (8 B) or a re-gathered endpoint pair (8 B) would add back.

    The phase loop walks its frontier in row blocks of ``EDGE_BLOCK``
    (2^20) entries, so beyond the carried frontier (4 B per kept edge) a
    phased run's transients are a block's worth, not the graph's: at
    n = 2000 (m ~ 2x10^6) one block is half the graph, and a block's int64
    keys are the ~4.2 B/edge that luby (4.35 measured), greedy (4.35) and
    abi (5.3) peak at.  Ghaffari (10.5) adds a phase-0 frontier that
    keeps nearly every edge and its desire update's int32 receivers and
    int64 terms per block.  While the passes covered the whole frontier
    at once, luby peaked at 10.7, greedy 9.4, abi 6.1 and ghaffari 36.2.
    As a block is half the graph here, the figures move with how many
    nodes survive phase 0 (abi reads 10.4 at seed 2), so these pins use
    seed 0 only; :meth:`test_small_block_run_peak_per_edge` pins seeds
    0-2 with blocks small enough to measure the blocking itself.

    The recursion reads its rows in the same row blocks: a call filters
    its parent's rows block by block into a sub-call's rows that grow
    in place, and counts their lengths from the kept entries per row.
    Fast-sleeping measures 3.44 B/edge here (6.4 while a call filtered
    all of its rows at once, through a bincount of the kept entries);
    :meth:`test_small_block_recursion_peak_per_edge` pins both sleeping
    algorithms with small blocks.
    """

    @pytest.mark.parametrize(
        "engine,algorithm,bytes_per_edge",
        [
            (VectorizedEngine, "fast-sleeping", 4),
            (PhasedVectorizedEngine, "luby", 6),
            (PhasedVectorizedEngine, "greedy", 6),
            (PhasedVectorizedEngine, "abi", 7),
            (PhasedVectorizedEngine, "ghaffari", 12),
        ],
    )
    def test_dense_run_peak_per_edge(self, engine, algorithm, bytes_per_edge):
        ga = make_family_arrays("gnp-dense", 2000, seed=7)
        assert ga.m > 1_500_000
        ga.id_bits  # warm per-graph lazy caches outside the window
        gc.collect()
        tracemalloc.start()
        try:
            result = engine(ga, algorithm, seed=0, rng="batched").run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.is_valid_mis()
        assert peak <= bytes_per_edge * ga.m, (
            f"{algorithm} run traced {peak / ga.m:.1f} bytes per directed "
            f"edge (bound {bytes_per_edge}): per-edge state is back?"
        )

    @pytest.mark.parametrize(
        "algorithm,bytes_per_edge",
        [("luby", 3), ("greedy", 3), ("abi", 5), ("ghaffari", 5)],
    )
    def test_small_block_run_peak_per_edge(
        self, monkeypatch, algorithm, bytes_per_edge
    ):
        """The phased runs above with ``EDGE_BLOCK`` patched to 2^14, so
        the graph is ~122 blocks, at engine seeds 0-2: what a block-bounded
        pass leaves is the carried frontier (4 B per kept edge), so any
        per-edge transient coming back shows.  Measured maxima over the
        three seeds: luby 2.34, greedy 2.28, abi 4.28, ghaffari 4.32 B/edge
        (ghaffari's phase-0 frontier keeps nearly every edge); each bound
        is under one more byte per edge, a bool mask's worth."""
        monkeypatch.setattr(phase_loop, "EDGE_BLOCK", 1 << 14)
        ga = make_family_arrays("gnp-dense", 2000, seed=7)
        assert ga.m > 120 * phase_loop.EDGE_BLOCK
        ga.id_bits  # warm per-graph lazy caches outside the window
        for seed in range(3):
            gc.collect()
            tracemalloc.start()
            try:
                result = PhasedVectorizedEngine(
                    ga, algorithm, seed=seed, rng="batched"
                ).run()
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.is_valid_mis()
            assert peak <= bytes_per_edge * ga.m, (
                f"{algorithm} run at seed {seed} traced "
                f"{peak / ga.m:.2f} bytes per directed edge in blocks of "
                f"{phase_loop.EDGE_BLOCK} (bound {bytes_per_edge}): a "
                f"per-edge transient is back?"
            )

    @pytest.mark.parametrize("algorithm", ["sleeping", "fast-sleeping"])
    def test_small_block_recursion_peak_per_edge(self, monkeypatch, algorithm):
        """The recursion with ``EDGE_BLOCK`` patched to 2^14, at engine
        seeds 0-2: what is left beyond a block is the sub-calls' rows, a
        quarter of the parent's per level down the left spine.  Measured
        maxima over the three seeds: sleeping 1.58, fast-sleeping 1.57
        B/edge (each 5.9-6.6 while a call filtered all of its rows at
        once); the bound is under one more byte per edge."""
        monkeypatch.setattr(phase_loop, "EDGE_BLOCK", 1 << 14)
        ga = make_family_arrays("gnp-dense", 2000, seed=7)
        assert ga.m > 120 * phase_loop.EDGE_BLOCK
        ga.id_bits  # warm per-graph lazy caches outside the window
        for seed in range(3):
            gc.collect()
            tracemalloc.start()
            try:
                result = VectorizedEngine(
                    ga, algorithm, seed=seed, rng="batched"
                ).run()
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.is_valid_mis()
            assert peak <= 2 * ga.m, (
                f"{algorithm} run at seed {seed} traced "
                f"{peak / ga.m:.2f} bytes per directed edge in blocks of "
                f"{phase_loop.EDGE_BLOCK} (bound 2): a per-edge transient "
                f"is back?"
            )

    def test_sleeping_recursion_peak_per_edge(self):
        """Algorithm 1's recursion on gnp-dense n = 1500: the traced peak
        of a run stays at or below 8 bytes per directed edge, the peak
        (7.97 B) of the recursion that still carried edge ids and
        gathered both endpoint columns per call."""
        ga = make_family_arrays("gnp-dense", 1500, seed=7)
        assert ga.m > 1_000_000
        ga.id_bits  # warm per-graph lazy caches outside the window
        gc.collect()
        tracemalloc.start()
        try:
            result = VectorizedEngine(ga, "sleeping", seed=0, rng="batched").run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.is_valid_mis()
        assert peak <= 8 * ga.m, (
            f"sleeping run traced {peak / ga.m:.2f} bytes per directed "
            f"edge (bound 8)"
        )
