"""The array-native graph sources (repro.graphs.arrays).

The whole point of ``graph_source="arrays"`` is that it is a *pure
performance* choice: for the same family, size, and seed the direct-to-CSR
samplers must produce exactly the edge set the networkx generators
produce.  These tests pin that parity edge-for-edge, the structural
invariants of :meth:`GraphArrays.from_edges`, the ``to_networkx()``
round-trip, and the source-resolution rules.
"""

import math
import sys
import threading
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.arrays
import repro.graphs.csr
from repro.graphs.arrays import (
    ARRAY_FAMILIES,
    DEFAULT_GRAPH_RNG,
    GRAPH_RNG_VERSIONS,
    GRAPH_RNGS,
    GRAPH_SOURCES,
    RANDOMIZED_ARRAY_FAMILIES,
    array_family_names,
    gnp_arrays,
    gnp_arrays_v2,
    grid_arrays,
    make_family,
    make_family_arrays,
    path_arrays,
    resolve_graph_source,
    ring_arrays,
    star_arrays,
    validate_graph_rng,
)
from repro.graphs.csr import GraphArrays
from repro.graphs.generators import (
    FAMILIES,
    GNP_FAST_THRESHOLD,
    cycle_graph,
    gnp,
    grid_graph,
    make_family_graph,
    path_graph,
    star_graph,
)
from repro.sim.network import normalize_graph

from helpers import GRAPH_BUILDERS, GRAPH_IDS, argsort_csr


def assert_same_graph(arrays: GraphArrays, graph) -> None:
    """Edge-for-edge equality with a networkx-built reference."""
    reference = GraphArrays(graph)
    assert arrays.n == reference.n
    assert list(arrays.node_ids) == list(reference.node_ids)
    np.testing.assert_array_equal(arrays.src, reference.src)
    np.testing.assert_array_equal(arrays.dst, reference.dst)
    np.testing.assert_array_equal(arrays.deg, reference.deg)


def assert_symmetric(ga: GraphArrays) -> None:
    """Every directed edge's reverse is an edge: the ``(dst, src)`` pairs,
    sorted, equal the ``(src, dst)`` pairs (which the CSR keeps sorted)."""
    forward = ga.src.astype(np.int64) * ga.n + ga.dst
    reverse = np.sort(ga.dst.astype(np.int64) * ga.n + ga.src)
    np.testing.assert_array_equal(reverse, forward)


class TestGnpParity:
    @pytest.mark.parametrize(
        "n,p,seed",
        [
            (1, 0.5, 0),
            (2, 0.5, 3),
            (30, 0.15, 4),
            (300, 0.05, 7),
            (50, 0.9, 2),
            (40, 0.0, 1),
            (12, 1.0, 9),
        ],
    )
    def test_pair_loop_regime(self, n, p, seed):
        assert_same_graph(gnp_arrays(n, p, seed), gnp(n, p, seed=seed))

    def test_skip_sampler_regime(self):
        # Above the threshold and sparse: the O(n + m) geometric-skip
        # path, still edge-for-edge equal to networkx's.
        n = GNP_FAST_THRESHOLD + 100
        p = 8.0 / (n - 1)
        for seed in (0, 11, 12345):
            assert_same_graph(gnp_arrays(n, p, seed), gnp(n, p, seed=seed))

    def test_dense_above_threshold_stays_pair_loop(self):
        # p >= 0.25 never takes the skip sampler, matching generators.gnp.
        n = GNP_FAST_THRESHOLD + 10
        seed = 5
        assert_same_graph(gnp_arrays(n, 0.3, seed), gnp(n, 0.3, seed=seed))


class TestDeterministicTopologies:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 37])
    def test_ring(self, n):
        assert_same_graph(ring_arrays(n), cycle_graph(n))

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_path(self, n):
        assert_same_graph(path_arrays(n), path_graph(n))

    @pytest.mark.parametrize("n", [1, 2, 12, 33])
    def test_star(self, n):
        assert_same_graph(star_arrays(n), star_graph(n))

    def test_star_rejects_empty(self):
        with pytest.raises(ValueError):
            star_arrays(0)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (4, 4), (2, 11)])
    def test_grid_including_string_sorted_relabeling(self, rows, cols):
        # grid_graph relabels (i, j) nodes sorted *by str*, which is not
        # row-major once an index reaches 10 -- the 2x11 case would catch
        # a numeric-order shortcut.
        assert_same_graph(grid_arrays(rows, cols), grid_graph(rows, cols))


class TestFromEdges:
    def test_self_loops_and_duplicates_collapse(self):
        ga = GraphArrays.from_edges(
            4, np.array([0, 1, 1, 2, 3]), np.array([1, 0, 2, 1, 3])
        )
        # 3--3 dropped, 0--1 deduped across orientations, 1--2 deduped.
        assert ga.adjacency == normalize_graph({0: [1], 1: [0, 2], 2: [1], 3: []})

    def test_endpoint_bounds_checked(self):
        with pytest.raises(ValueError):
            GraphArrays.from_edges(3, np.array([0]), np.array([3]))
        with pytest.raises(ValueError):
            GraphArrays.from_edges(3, np.array([-1]), np.array([1]))
        with pytest.raises(ValueError):
            GraphArrays.from_edges(3, np.array([0, 1]), np.array([1]))

    def test_reversed_pairs_are_the_edge_list(self):
        assert_symmetric(gnp_arrays(80, 0.1, seed=6))

    def test_lazy_adjacency_not_built_until_asked(self):
        ga = gnp_arrays(50, 0.1, seed=1)
        assert ga._adjacency is None
        adjacency = ga.adjacency  # materializes and caches
        assert ga._adjacency is adjacency
        assert adjacency == normalize_graph(gnp(50, 0.1, seed=1))

    def test_empty_graph(self):
        ga = GraphArrays.from_edges(0, np.empty(0), np.empty(0))
        assert ga.n == 0 and ga.m == 0 and ga.adjacency == {}


class TestToNetworkx:
    def test_round_trip(self):
        ga = gnp_arrays(60, 0.1, seed=8)
        back = ga.to_networkx()
        assert isinstance(back, nx.Graph)
        assert_same_graph(GraphArrays(back), gnp(60, 0.1, seed=8))

    def test_preserves_isolated_nodes(self):
        ga = make_family_arrays("empty", 5)
        assert sorted(ga.to_networkx().nodes()) == [0, 1, 2, 3, 4]
        assert ga.to_networkx().number_of_edges() == 0


class TestFamilyRegistry:
    def test_array_families_subset_of_families(self):
        assert set(ARRAY_FAMILIES) <= set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(ARRAY_FAMILIES))
    @pytest.mark.parametrize("n", [1, 2, 17, 64])
    def test_family_parity(self, family, n):
        for seed in (0, 3):
            assert_same_graph(
                make_family_arrays(family, n, seed=seed),
                make_family_graph(family, n, seed=seed),
            )

    def test_unknown_family_rejected(self):
        # Known family, but no array-native sampler.
        with pytest.raises(ValueError, match="no array-native sampler"):
            make_family_arrays("tree", 10)
        # Unknown everywhere: the shared suggestion-bearing error path.
        with pytest.raises(ValueError, match="'gnp-dense', 'gnp-sparse'"):
            make_family_arrays("gnp", 10)

    def test_names_sorted(self):
        assert array_family_names() == sorted(ARRAY_FAMILIES)


class TestSourceResolution:
    def test_auto_prefers_arrays_when_available(self):
        assert resolve_graph_source("auto", "gnp-sparse") == "arrays"
        assert resolve_graph_source("auto", "tree") == "networkx"

    def test_explicit_sources(self):
        assert resolve_graph_source("networkx", "gnp-sparse") == "networkx"
        assert resolve_graph_source("arrays", "cycle") == "arrays"

    def test_arrays_for_unsupported_family_is_an_error(self):
        with pytest.raises(ValueError, match="no array-native sampler"):
            resolve_graph_source("arrays", "tree")

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown graph source"):
            resolve_graph_source("csr", "cycle")
        assert GRAPH_SOURCES == ("auto", "networkx", "arrays")


def _gnp_v2_reference_pairs(n, p, seed):
    """Scalar reimplementation of the normative v2 sampling format.

    Independent of the vectorized code path: one draw at a time through
    the scalar ``mix64``, Python ``math.log1p`` skips, exact int
    positions.  The vectorized sampler must reproduce it bit-for-bit.
    """
    from repro.sim.rng import graph_stream_key, mix64

    key = graph_stream_key(seed)
    total = n * (n - 1) // 2
    log1mp = math.log1p(-p)
    pos, j, pairs = -1, 0, []
    while True:
        u = (mix64((key + j) % (1 << 64)) >> 11) * 2.0**-53
        j += 1
        pos += 1 + int(math.log1p(-u) / log1mp)
        if pos >= total:
            return pairs
        v = (1 + math.isqrt(1 + 8 * pos)) // 2
        while v * (v - 1) // 2 > pos:
            v -= 1
        while (v + 1) * v // 2 <= pos:
            v += 1
        pairs.append((pos - v * (v - 1) // 2, v))


class TestGraphRngV2:
    """The versioned v2 (``"batched"``) sampling stream.

    Same three contracts as the node-stream tests in
    ``tests/test_rng_streams.py``: determinism, deliberate v1/v2
    incompatibility, and scalar/vector agreement on the normative format.
    """

    def test_streams_are_versioned(self):
        assert GRAPH_RNGS == ("legacy", "batched")
        assert GRAPH_RNG_VERSIONS == {"legacy": 1, "batched": 2}

    def test_default_stays_v1(self):
        """Seed compatibility: the default sampling stream must remain
        ``legacy`` so graph seeds recorded before v2 existed keep
        replaying identically."""
        assert DEFAULT_GRAPH_RNG == "legacy"

    def test_validate_rejects_unknown_streams(self):
        assert validate_graph_rng("batched") == "batched"
        with pytest.raises(ValueError, match="unknown graph_rng"):
            validate_graph_rng("v3")
        with pytest.raises(ValueError, match="unknown graph_rng"):
            make_family_arrays("gnp-sparse", 10, graph_rng="v3")

    @pytest.mark.parametrize("n,p", [(40, 0.1), (200, 0.03), (64, 0.5)])
    def test_deterministic(self, n, p):
        for seed in (0, 7):
            a = gnp_arrays_v2(n, p, seed=seed)
            b = gnp_arrays_v2(n, p, seed=seed)
            np.testing.assert_array_equal(a.src, b.src)
            np.testing.assert_array_equal(a.dst, b.dst)

    def test_different_seeds_differ(self):
        a = gnp_arrays_v2(200, 0.05, seed=0)
        b = gnp_arrays_v2(200, 0.05, seed=1)
        assert a.m != b.m or not np.array_equal(a.src, b.src)

    def test_v1_v2_graphs_differ(self):
        """The formats are deliberately incompatible: same (n, p, seed),
        different sampled graphs (pinned on these fixed parameters)."""
        v1 = gnp_arrays(300, 0.05, seed=7)
        v2 = gnp_arrays_v2(300, 0.05, seed=7)
        assert v1.m != v2.m or not np.array_equal(v1.src, v2.src)

    @pytest.mark.parametrize("n,p,seed", [(30, 0.2, 0), (120, 0.05, 3),
                                          (50, 0.7, 9)])
    def test_matches_scalar_reference(self, n, p, seed):
        """Vector/scalar agreement on the normative skip format."""
        expected = _gnp_v2_reference_pairs(n, p, seed)
        got = gnp_arrays_v2(n, p, seed=seed)
        half = got.src < got.dst
        pairs = sorted(
            zip(got.src[half].tolist(), got.dst[half].tolist())
        )
        assert pairs == sorted(expected)

    def test_format_anchor(self):
        """A hardcoded anchor so any formula drift (key derivation, skip
        law, decode order) fails loudly, not just differently."""
        got = gnp_arrays_v2(12, 0.3, seed=0)
        half = got.src < got.dst
        pairs = list(zip(got.src[half].tolist(), got.dst[half].tolist()))
        assert pairs == sorted(_gnp_v2_reference_pairs(12, 0.3, 0))
        # Frozen output of the v2 format for (12, 0.3, 0); must never
        # change -- the format is versioned.
        assert pairs[:4] == [(0, 1), (0, 7), (1, 4), (1, 6)]
        assert got.m == 2 * 21

    def test_chunk_size_is_not_part_of_the_format(self, monkeypatch):
        reference = gnp_arrays_v2(150, 0.08, seed=5)
        monkeypatch.setattr(repro.graphs.arrays, "GNP_V2_CHUNK", 1024)
        chunked = gnp_arrays_v2(150, 0.08, seed=5)
        np.testing.assert_array_equal(chunked.src, reference.src)
        np.testing.assert_array_equal(chunked.dst, reference.dst)

    def test_structure_invariants(self):
        ga = gnp_arrays_v2(400, 0.03, seed=2)
        assert_symmetric(ga)
        np.testing.assert_array_equal(
            ga.deg, np.bincount(ga.src, minlength=ga.n)
        )
        assert (ga.src != ga.dst).all()

    def test_edge_cases(self):
        assert gnp_arrays_v2(0, 0.5).n == 0
        assert gnp_arrays_v2(1, 0.5).m == 0
        assert gnp_arrays_v2(10, 0.0).m == 0
        assert gnp_arrays_v2(10, 1.0).m == 90  # complete, same as v1
        assert gnp_arrays_v2(2, 0.9999, seed=3).n == 2

    def test_distribution_sanity(self):
        """Edge counts concentrate around p * n(n-1)/2 across seeds."""
        n, p = 300, 0.05
        expect = p * n * (n - 1) / 2
        counts = [gnp_arrays_v2(n, p, seed=s).m // 2 for s in range(20)]
        mean = sum(counts) / len(counts)
        assert abs(mean - expect) < 0.05 * expect

    @pytest.mark.parametrize("family", sorted(ARRAY_FAMILIES))
    def test_family_registry_plumbs_graph_rng(self, family):
        a = make_family_arrays(family, 60, seed=3, graph_rng="batched")
        b = make_family_arrays(family, 60, seed=3, graph_rng="batched")
        np.testing.assert_array_equal(a.src, b.src)
        legacy = make_family_arrays(family, 60, seed=3, graph_rng="legacy")
        if family in RANDOMIZED_ARRAY_FAMILIES:
            assert a.m != legacy.m or not np.array_equal(a.src, legacy.src)
        else:
            # Deterministic topologies carry no randomness: identical
            # graphs under either stream.
            np.testing.assert_array_equal(a.src, legacy.src)
            np.testing.assert_array_equal(a.dst, legacy.dst)

    def test_make_family_routes_batched_to_arrays(self):
        from repro.graphs.csr import GraphArrays

        built = make_family("gnp-sparse", 80, seed=1, graph_source="auto",
                            graph_rng="batched")
        assert isinstance(built, GraphArrays)


class TestGraphRngResolution:
    """Unsupported graph_rng combinations fail with actionable text."""

    def test_batched_resolves_to_arrays(self):
        assert resolve_graph_source("auto", "gnp-sparse", "batched") == "arrays"
        assert (
            resolve_graph_source("arrays", "gnp-dense", "batched") == "arrays"
        )

    def test_batched_with_networkx_source_names_the_fix(self):
        with pytest.raises(ValueError) as err:
            resolve_graph_source("networkx", "gnp-sparse", "batched")
        message = str(err.value)
        assert "graph_rng='batched'" in message
        assert "graph_source='arrays'" in message
        assert "graph_rng='legacy'" in message

    def test_batched_with_non_array_family_names_the_fix(self):
        with pytest.raises(ValueError) as err:
            resolve_graph_source("auto", "tree", "batched")
        message = str(err.value)
        assert "graph_rng='batched'" in message
        assert "tree" in message
        assert "graph_rng='legacy'" in message

    def test_sweep_surfaces_the_actionable_error(self):
        from repro.analysis.complexity import sweep

        with pytest.raises(ValueError, match="graph_rng='batched'"):
            sweep("luby", "tree", sizes=(16,), trials=1, graph_rng="batched")
        with pytest.raises(ValueError, match="graph_rng='batched'"):
            sweep("luby", "gnp-sparse", sizes=(16,), trials=1,
                  graph_source="networkx", graph_rng="batched")

    def test_legacy_resolution_unchanged(self):
        assert resolve_graph_source("auto", "gnp-sparse", "legacy") == "arrays"
        assert resolve_graph_source("auto", "tree", "legacy") == "networkx"


class TestEndToEnd:
    """The array pipeline must be invisible in measured results."""

    @pytest.mark.parametrize(
        "algorithm",
        ["sleeping", "fast-sleeping", "luby", "greedy", "ghaffari", "abi"],
    )
    @pytest.mark.parametrize("rng", ["pernode", "batched"])
    def test_identical_runs_on_either_source(self, algorithm, rng):
        from repro.api import solve_mis

        seed = 5
        via_nx = solve_mis(
            make_family_graph("gnp-sparse", 150, seed=seed),
            algorithm, seed=seed, engine="vectorized", rng=rng,
        )
        via_arrays = solve_mis(
            make_family_arrays("gnp-sparse", 150, seed=seed),
            algorithm, seed=seed, engine="vectorized", rng=rng,
        )
        assert via_nx.mis == via_arrays.mis
        assert via_nx.rounds == via_arrays.rounds
        assert via_nx.summary() == via_arrays.summary()

    def test_generator_engine_reads_arrays_through_lazy_view(self):
        from repro.api import solve_mis

        ga = make_family_arrays("cycle", 12)
        assert ga._adjacency is None
        result = solve_mis(ga, "luby", seed=2, engine="generators")
        assert ga._adjacency is not None  # generator engine forced the view
        reference = solve_mis(cycle_graph(12), "luby", seed=2, engine="generators")
        assert result.mis == reference.mis


# ----------------------------------------------------------------------
# The one array-native CSR build: from_edges feeding the chunked
# from_distinct_pair_chunks, pinned to the test-only argsort reference.
# ----------------------------------------------------------------------


def _distinct_pairs_of(graph):
    """The (lo, hi)-sorted distinct pair arrays of a networkx graph."""
    ga = GraphArrays(normalize_graph(graph))
    fwd = ga.src < ga.dst
    return ga.n, ga.src[fwd].astype(np.int64), ga.dst[fwd].astype(np.int64)


def _assert_same_arrays(a: GraphArrays, b: GraphArrays) -> None:
    assert a.n == b.n
    for field in ("src", "dst", "deg"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def _assert_matches_reference(ga: GraphArrays, n, lo, hi) -> None:
    """``ga`` holds exactly the argsort reference's arrays and dtypes for
    the distinct pairs ``(lo, hi)``."""
    assert ga.n == n
    for field, want in zip(("src", "dst", "deg"), argsort_csr(n, lo, hi)):
        got = getattr(ga, field)
        assert got.dtype == want.dtype, field
        np.testing.assert_array_equal(got, want, err_msg=field)


def _assert_csr_invariants(ga: GraphArrays) -> None:
    """The structural contract every build path must satisfy."""
    m = len(ga.src)
    assert int(ga.deg.sum()) == m
    if not m:
        return
    # (src, dst) strictly ascending: sorted, no duplicate directed edges.
    key = ga.src.astype(np.int64) * ga.n + ga.dst
    assert (key[1:] > key[:-1]).all()
    assert_symmetric(ga)


class TestDirectCsrBuild:
    """`from_edges` on every input order, pinned to the argsort reference."""

    @pytest.mark.parametrize("builder", GRAPH_BUILDERS, ids=GRAPH_IDS)
    def test_parity_with_argsort_path_across_graph_cases(self, builder):
        n, lo, hi = _distinct_pairs_of(builder())
        built = GraphArrays.from_edges(n, lo, hi)
        _assert_matches_reference(built, n, lo, hi)
        _assert_csr_invariants(built)

    @pytest.mark.parametrize("builder", GRAPH_BUILDERS, ids=GRAPH_IDS)
    def test_parity_on_hi_major_order(self, builder):
        """The v2 sampler's native (hi, lo)-lex order, same graphs."""
        n, lo, hi = _distinct_pairs_of(builder())
        order = np.lexsort((lo, hi))
        lo, hi = lo[order], hi[order]
        _assert_matches_reference(GraphArrays.from_edges(n, lo, hi), n, lo, hi)

    @pytest.mark.parametrize("builder", GRAPH_BUILDERS, ids=GRAPH_IDS)
    def test_unsorted_input_parity(self, builder):
        """Shuffled pairs, every other one given as (hi, lo)."""
        import random

        n, lo, hi = _distinct_pairs_of(builder())
        idx = list(range(len(lo)))
        random.Random(7).shuffle(idx)
        lo, hi = lo[idx], hi[idx]
        u, v = lo.copy(), hi.copy()
        u[::2], v[::2] = hi[::2], lo[::2]
        built = GraphArrays.from_edges(n, u, v)
        _assert_matches_reference(built, n, lo, hi)
        _assert_csr_invariants(built)

    def test_empty_graph(self):
        ga = GraphArrays.from_edges(7, [], [])
        assert (len(ga.src), len(ga.dst)) == (0, 0)
        np.testing.assert_array_equal(ga.deg, np.zeros(7, dtype=np.int64))
        _assert_matches_reference(ga, 7, [], [])

    def test_isolated_high_id_nodes(self):
        """Trailing nodes past every edge keep zero-degree CSR rows."""
        n = 5000
        lo = np.arange(10, dtype=np.int64)
        hi = lo + 1
        ga = GraphArrays.from_edges(n, lo, hi)
        _assert_matches_reference(ga, n, lo, hi)
        assert (ga.deg[12:] == 0).all()
        assert int(ga.deg.sum()) == 20

    def test_ids_at_the_top_of_a_large_id_space(self):
        """Node ids right under n at a multi-million-node n: the int64
        composite keys and int32 slot arithmetic must stay exact."""
        n = 1 << 24
        hi = np.array([n - 1, n - 1, n - 2], dtype=np.int64)
        lo = np.array([0, n - 3, n - 3], dtype=np.int64)
        ga = GraphArrays.from_edges(n, hi, lo)
        _assert_matches_reference(ga, n, lo, hi)
        _assert_csr_invariants(ga)

    def test_composite_key_headroom_at_int32_id_bound(self):
        """Document the arithmetic ceiling: even at the int32 id bound
        (the format's hard limit -- src/dst are int32), the (hi, lo)
        composite key stays inside int64."""
        n = 2**31 - 1
        assert (n - 1) * n + (n - 2) < 2**63 - 1

    def test_bounds_and_orientation_still_checked(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 3\)"):
            GraphArrays.from_edges(3, [0], [3])
        with pytest.raises(ValueError, match=r"lie in \[0, 3\)"):
            GraphArrays.from_edges(3, [-1], [1])
        with pytest.raises(ValueError, match=r"lie in \[0, 3\)"):
            GraphArrays.from_distinct_pair_chunks(3, [([0], [3])])
        with pytest.raises(ValueError, match="lo < hi"):
            GraphArrays.from_distinct_pair_chunks(3, [([2], [1])])

    def test_randomized_cross_check(self):
        """Deterministic sweep: random sizes and densities, raw endpoints
        with self-loops, duplicates and both orientations, every build
        pinned to the argsort reference over the distinct pairs."""
        import random

        pyrng = random.Random(0)
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = pyrng.randrange(2, 300)
            m_want = pyrng.randrange(0, 2 * n)
            u = rng.integers(0, n, size=m_want)
            v = rng.integers(0, n, size=m_want)
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            keep = lo != hi
            key = np.unique(lo[keep] * np.int64(n) + hi[keep])
            built = GraphArrays.from_edges(n, u, v)
            _assert_matches_reference(built, n, key // n, key % n)
            _assert_csr_invariants(built)


@st.composite
def _raw_edges(draw):
    """``n`` from 0 and raw endpoint lists over ``0..n-1``: self-loops,
    duplicates and reversed pairs all occur."""
    n = draw(st.integers(0, 30))
    node = st.integers(0, max(n - 1, 0))
    k = draw(st.integers(0, 60)) if n else 0
    u = draw(st.lists(node, min_size=k, max_size=k))
    v = draw(st.lists(node, min_size=k, max_size=k))
    return n, u, v


@settings(max_examples=200, deadline=None)
@given(_raw_edges())
def test_from_edges_matches_reference_and_dict_build(case):
    n, u, v = case
    pairs = sorted({(min(a, b), max(a, b)) for a, b in zip(u, v) if a != b})
    lo = [a for a, _ in pairs]
    hi = [b for _, b in pairs]
    built = GraphArrays.from_edges(n, np.array(u, dtype=np.int64), v)
    _assert_matches_reference(built, n, lo, hi)
    adjacency = {i: set() for i in range(n)}
    for a, b in pairs:
        adjacency[a].add(b)
        adjacency[b].add(a)
    _assert_same_arrays(built, GraphArrays(adjacency))


class TestMalformedEndpoints:
    """Only 1-D integer arrays are endpoint lists; the error names the fix."""

    @pytest.mark.parametrize(
        "u,v",
        [
            ([0.5], [1.7]),
            (np.array([0.9]), np.array([2.2])),
            (np.array([0]), np.array([2.0])),
        ],
        ids=["float-lists", "float-arrays", "one-float-side"],
    )
    def test_float_endpoints_rejected(self, u, v):
        with pytest.raises(ValueError, match=r"integer node indices.*astype"):
            GraphArrays.from_edges(3, u, v)

    def test_boolean_endpoints_rejected(self):
        with pytest.raises(ValueError, match="got dtype bool"):
            GraphArrays.from_edges(3, [True], [0])

    def test_two_dimensional_endpoints_rejected(self):
        with pytest.raises(ValueError, match=r"1-D arrays, got shape \(1, 2\)"):
            GraphArrays.from_edges(3, np.array([[0, 1]]), np.array([[1, 2]]))

    def test_empty_endpoints_of_any_dtype_accepted(self):
        for empty in ([], np.empty(0), np.empty(0, dtype=bool)):
            ga = GraphArrays.from_edges(3, empty, empty)
            assert ga.m == 0 and ga.deg.tolist() == [0, 0, 0]

    def test_chunk_endpoints_checked_too(self):
        with pytest.raises(ValueError, match="got dtype float64"):
            GraphArrays.from_distinct_pair_chunks(3, [([0.0], [1.0])])
        with pytest.raises(ValueError, match="1-D arrays"):
            GraphArrays.from_distinct_pair_chunks(
                3, [(np.array([[0]]), np.array([[1]]))]
            )


class TestChunkedCsrBuild:
    """`from_distinct_pair_chunks`: the one-pass chunked builder."""

    @staticmethod
    def _chunked(lo, hi, size):
        for i in range(0, max(len(lo), 1), size):
            yield lo[i : i + size], hi[i : i + size]

    @pytest.mark.parametrize("size", [1, 3, 7, 10_000])
    def test_equals_argsort_reference_across_chunk_splits(self, size):
        ga = gnp_arrays_v2(400, 0.05, seed=3)
        fwd = ga.src < ga.dst
        lo64 = ga.src[fwd].astype(np.int64)
        hi64 = ga.dst[fwd].astype(np.int64)
        order = np.lexsort((lo64, hi64))  # the required (hi, lo) order
        lo64, hi64 = lo64[order], hi64[order]
        chunked = GraphArrays.from_distinct_pair_chunks(
            400, self._chunked(lo64, hi64, size)
        )
        _assert_matches_reference(chunked, 400, lo64, hi64)
        _assert_csr_invariants(chunked)

    def test_empty_stream(self):
        ga = GraphArrays.from_distinct_pair_chunks(5, iter(()))
        assert len(ga.src) == 0
        np.testing.assert_array_equal(ga.deg, np.zeros(5, dtype=np.int64))

    def test_empty_chunks_are_skipped(self):
        lo = np.array([0, 0], dtype=np.int64)
        hi = np.array([1, 2], dtype=np.int64)
        chunks = [(lo[:0], hi[:0]), (lo[:1], hi[:1]), (lo[:0], hi[:0]),
                  (lo[1:], hi[1:])]
        ga = GraphArrays.from_distinct_pair_chunks(3, chunks)
        _assert_matches_reference(ga, 3, lo, hi)

    def test_out_of_order_chunks_rejected(self):
        lo = np.array([0, 0], dtype=np.int64)
        hi = np.array([2, 1], dtype=np.int64)  # (hi, lo) keys decrease
        with pytest.raises(ValueError, match="strictly increasing"):
            GraphArrays.from_distinct_pair_chunks(3, self._chunked(lo, hi, 1))

    def test_duplicate_pairs_rejected(self):
        lo = np.array([0, 0], dtype=np.int64)
        hi = np.array([1, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="strictly increasing"):
            GraphArrays.from_distinct_pair_chunks(3, self._chunked(lo, hi, 2))

    def test_contract_violations_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            GraphArrays.from_distinct_pair_chunks(
                3,
                self._chunked(
                    np.array([2], dtype=np.int64),
                    np.array([1], dtype=np.int64),
                    1,
                ),
            )
        with pytest.raises(ValueError, match=r"lie in \[0, 3\)"):
            GraphArrays.from_distinct_pair_chunks(
                3,
                self._chunked(
                    np.array([0], dtype=np.int64),
                    np.array([5], dtype=np.int64),
                    1,
                ),
            )

    #: Every pair of K8 in (hi, lo) order: 28 pairs, 7 slices of 4.
    K8_LO = np.array([lo for hi in range(8) for lo in range(hi)], dtype=np.int64)
    K8_HI = np.array([hi for hi in range(8) for lo in range(hi)], dtype=np.int64)

    @pytest.mark.parametrize("size", [1, 5, 28])
    def test_small_slices_build_the_reference(self, monkeypatch, size):
        """Chunks validated and counted in slices of 4 pairs, whatever
        way the chunks cut across the slices.  The slices take both ways
        of counting ``hi``: run by run where all four share one ``hi``
        (pairs 16-19 and 24-27), by ``bincount`` elsewhere."""
        monkeypatch.setattr(repro.graphs.csr, "CACHE_BLOCK", 4)
        lo, hi = self.K8_LO, self.K8_HI
        ga = GraphArrays.from_distinct_pair_chunks(
            8, self._chunked(lo, hi, size)
        )
        _assert_matches_reference(ga, 8, lo, hi)

    @pytest.mark.parametrize("at", [1, 3, 4, 5, 8, 27], ids=lambda at: f"pair{at}")
    @pytest.mark.parametrize(
        "fault,message",
        [
            ("duplicate", "strictly increasing"),
            ("swap", "strictly increasing"),
            ("lo_eq_hi", "lo < hi"),
            ("out_of_range", r"lie in \[0, 8\)"),
        ],
    )
    def test_violation_found_at_slice_boundaries(
        self, monkeypatch, at, fault, message
    ):
        """A chunk is checked over slices of ``CACHE_BLOCK`` pairs, each
        overlapping the one before by a pair: a fault on either side of
        a slice boundary (pairs 3 | 4 and 7 | 8 with slices of 4) or at
        the chunk's last pair is still found, with its own message."""
        monkeypatch.setattr(repro.graphs.csr, "CACHE_BLOCK", 4)
        lo, hi = self.K8_LO.copy(), self.K8_HI.copy()
        if fault == "duplicate":
            lo[at], hi[at] = lo[at - 1], hi[at - 1]
        elif fault == "swap":
            lo[[at - 1, at]] = lo[[at, at - 1]]
            hi[[at - 1, at]] = hi[[at, at - 1]]
        elif fault == "lo_eq_hi":
            lo[at] = hi[at]
        else:
            hi[at] = 8
        with pytest.raises(ValueError, match=message):
            GraphArrays.from_distinct_pair_chunks(8, [(lo, hi)])

    def test_unequal_chunk_sides_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            GraphArrays.from_distinct_pair_chunks(
                8, [(self.K8_LO[:5], self.K8_HI[:6])]
            )

    def test_lo_hi_reported_before_a_broken_order(self, monkeypatch):
        """As with a whole-chunk check, a chunk that breaks both the
        order (in its first slice) and ``lo < hi`` (in its last) reports
        ``lo < hi``."""
        monkeypatch.setattr(repro.graphs.csr, "CACHE_BLOCK", 4)
        lo, hi = self.K8_LO.copy(), self.K8_HI.copy()
        lo[2] = lo[1]  # a duplicate pair
        lo[27] = hi[27]
        with pytest.raises(ValueError, match="lo < hi"):
            GraphArrays.from_distinct_pair_chunks(8, [(lo, hi)])

    def test_a_factory_is_rejected_with_the_fix(self):
        """The builder reads its chunks once: a zero-argument factory
        (the old two-pass contract) must fail loudly, not build an empty
        graph."""
        lo = np.array([0], dtype=np.int64)
        hi = np.array([1], dtype=np.int64)
        with pytest.raises(TypeError, match="iterable itself"):
            GraphArrays.from_distinct_pair_chunks(
                3, lambda: self._chunked(lo, hi, 1)
            )

    def test_producer_may_reuse_its_buffers(self):
        """Each chunk is copied when it is kept, so a producer that refills
        one buffer between yields still builds the right graph."""
        lo = np.array([0, 0, 1, 0], dtype=np.int64)
        hi = np.array([1, 2, 2, 3], dtype=np.int64)

        def refill():
            buf_lo = np.empty(2, dtype=np.int64)
            buf_hi = np.empty(2, dtype=np.int64)
            for i in (0, 2):
                buf_lo[:] = lo[i : i + 2]
                buf_hi[:] = hi[i : i + 2]
                yield buf_lo, buf_hi

        _assert_matches_reference(
            GraphArrays.from_distinct_pair_chunks(4, refill()), 4, lo, hi
        )

    def test_producer_that_scribbles_while_resumed(self):
        """The builder copies chunk k before it asks for chunk k + 1.

        This producer refills one buffer pair, and each time it is
        resumed it first poisons the pair with -1 and sleeps, so a
        builder that pulled ahead of its own copy (a read-ahead thread,
        say) would keep the poison or trip its own bounds check."""
        ga = gnp_arrays_v2(300, 0.05, seed=2)
        lower = ga.src > ga.dst  # the CSR walks these in (hi, lo) order
        hi = ga.src[lower].astype(np.int64)
        lo = ga.dst[lower].astype(np.int64)
        size = 256

        def scribbler():
            buf_lo = np.empty(size, dtype=np.int64)
            buf_hi = np.empty(size, dtype=np.int64)
            for i in range(0, len(lo), size):
                buf_lo.fill(-1)
                buf_hi.fill(-1)
                time.sleep(0.02)
                k = min(size, len(lo) - i)
                buf_lo[:k] = lo[i : i + k]
                buf_hi[:k] = hi[i : i + k]
                yield buf_lo[:k], buf_hi[:k]

        assert len(lo) > 3 * size  # several chunks, so several resumes
        built = GraphArrays.from_distinct_pair_chunks(300, scribbler())
        np.testing.assert_array_equal(built.dst, ga.dst)
        np.testing.assert_array_equal(built.deg, ga.deg)


class TestBuildThreads:
    """The v2 build's helper thread: output independent of the CPU
    count, no thread for a one-chunk stream, errors raised on the
    helper reach the caller, and no thread outlives a build."""

    @pytest.fixture(autouse=True)
    def no_thread_outlives_the_build(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @staticmethod
    def _cpus(monkeypatch, count):
        monkeypatch.setattr(repro.graphs.csr, "_usable_cpus", lambda: count)

    @pytest.mark.parametrize("chunk", [1 << 11, 1 << 16])
    @pytest.mark.parametrize(
        "family,n", [("gnp-dense", 2000), ("gnp-sparse", 100_000)]
    )
    def test_output_does_not_depend_on_the_cpu_count(
        self, monkeypatch, family, n, chunk
    ):
        monkeypatch.setattr(repro.graphs.arrays, "GNP_V2_CHUNK", chunk)
        built = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads finely
        try:
            for cpus in (1, 2):
                self._cpus(monkeypatch, cpus)
                built[cpus] = make_family_arrays(
                    family, n, seed=4, graph_rng="batched"
                )
        finally:
            sys.setswitchinterval(interval)
        assert built[1].m > 8 * chunk  # many chunks, so the helper ran
        np.testing.assert_array_equal(built[1].dst, built[2].dst)
        np.testing.assert_array_equal(built[1].deg, built[2].deg)

    def test_a_one_chunk_stream_starts_no_thread(self, monkeypatch):
        """n = 10^3 gnp-sparse is one default chunk: no thread, so small
        builds pay nothing for the helper."""

        def refuse(thread):
            raise AssertionError(f"a one-chunk build started {thread}")

        self._cpus(monkeypatch, 2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        chunks = repro.graphs.arrays._gnp_v2_pair_chunks(
            1000, 8 / 999, np.uint64(12345), repro.graphs.arrays.GNP_V2_CHUNK
        )
        assert sum(1 for _ in chunks) == 1
        ga = make_family_arrays("gnp-sparse", 1000, seed=0, graph_rng="batched")
        assert ga.m > 0

    @pytest.mark.parametrize(
        "module,name,on_helper",
        [
            (repro.graphs.arrays, "_skip_positions", True),  # pass 1 draws
            # pass 2: the helper places the last row groups' forward
            # entries while the caller places the first ones.
            (repro.graphs.csr, "_place_back", True),
            # The decode runs on the calling thread while the helper is
            # drawing the next chunk: the helper must still be stopped.
            (repro.graphs.arrays, "_pair_rows", False),
        ],
    )
    def test_an_error_mid_build_reaches_the_caller(
        self, monkeypatch, module, name, on_helper
    ):
        monkeypatch.setattr(repro.graphs.arrays, "GNP_V2_CHUNK", 1 << 11)
        self._cpus(monkeypatch, 2)
        real = getattr(module, name)
        calls = []

        def third_call_raises(*args):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise KeyError(f"{name} failed on chunk 3")
            return real(*args)

        monkeypatch.setattr(module, name, third_call_raises)
        with pytest.raises(KeyError, match=f"{name} failed on chunk 3"):
            gnp_arrays_v2(2000, 0.5, seed=4)
        assert (calls[2] is not threading.main_thread()) == on_helper



def _hi_major(pairs):
    """``pairs`` as int64 ``(lo, hi)`` arrays in ``(hi, lo)``-lex order."""
    pairs = sorted(((min(a, b), max(a, b)) for a, b in pairs), key=lambda p: p[::-1])
    lo, hi = zip(*pairs)
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


def _gnp_pairs(n, p, seed):
    rng = np.random.default_rng(seed)
    return [(a, b) for b in range(n) for a in range(b) if rng.random() < p]


#: Hand-cut chunk streams: ``(n, pairs, cuts, block)`` -- the stream
#: is cut into chunks before each pair index in ``cuts`` (``1`` alone
#: cuts before every pair), and ``CACHE_BLOCK`` is patched to ``block``
#: so the stream spans several row groups.
PLACEMENT_CASES = {
    # K8 in (hi, lo) order: row 5's backward pairs are 10-14, so the cut
    # at 12 splits its run across two chunks.
    "run-split-across-chunks": (
        8, [(a, b) for b in range(8) for a in range(b)], [12], 4,
    ),
    "one-pair-chunks": (8, [(a, b) for b in range(8) for a in range(b)], [1], 4),
    # The hub is the last node: its row is the stream's last run, longer
    # than a group, and cut across chunks; node 8 has no neighbor.
    "last-node-row": (
        10, [(a, 9) for a in range(8)] + [(1, 2), (3, 4), (2, 7)], [4, 9], 3,
    ),
    # Rows 0 and 3 hold only forward entries (every neighbor is above
    # them); every other row but 5 holds only backward ones.
    "forward-only-rows": (
        10,
        [(0, h) for h in range(1, 10) if h != 3]
        + [(3, 6), (3, 9), (5, 7), (5, 8)],
        [5, 8],
        2,
    ),
    # 11 row groups of about 30 pairs: the caller places 6, the helper 5.
    "odd-group-count": (60, _gnp_pairs(60, 0.15, 13), [37, 101, 180], 30),
}


class TestInPlacePlacement:
    """``from_distinct_pair_chunks`` builds ``dst`` in the buffer of the
    stream's ``lo`` values: each backward entry moves from stream
    position ``i`` to slot ``i + cumF[hi]``, the last row group first,
    and the forward entries fill the gaps by row group, from the front
    on the caller's thread and, with a helper, from the back on the
    helper's.  Hand-cut streams against the argsort reference, on one
    usable CPU and on two."""

    @pytest.fixture(autouse=True)
    def no_thread_outlives_the_build(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("case", sorted(PLACEMENT_CASES))
    def test_placement_builds_the_reference(self, monkeypatch, case, cpus):
        n, pairs, cuts, block = PLACEMENT_CASES[case]
        lo, hi = _hi_major(pairs)
        if cuts == [1]:
            cuts = list(range(1, len(lo)))
        bounds = [0] + cuts + [len(lo)]
        chunks = [(lo[a:b], hi[a:b]) for a, b in zip(bounds, bounds[1:])]
        monkeypatch.setattr(repro.graphs.csr, "CACHE_BLOCK", block)
        TestBuildThreads._cpus(monkeypatch, cpus)
        bstart = np.zeros(n + 1, dtype=np.int32)
        bstart[1:] = np.cumsum(np.bincount(hi, minlength=n))
        groups = repro.graphs.csr._row_groups(bstart)
        assert len(groups) > 1
        if case == "odd-group-count":
            assert len(groups) % 2 == 1
        placed_back = []
        place_back = repro.graphs.csr._place_back

        def counted(*args):
            placed_back.append(args[1])
            return place_back(*args)

        monkeypatch.setattr(repro.graphs.csr, "_place_back", counted)
        ga = GraphArrays.from_distinct_pair_chunks(n, chunks)
        _assert_matches_reference(ga, n, lo, hi)
        # The helper takes the later half of the groups, the last first.
        want = groups[(len(groups) + 1) // 2 :][::-1] if cpus == 2 else []
        assert placed_back == want
