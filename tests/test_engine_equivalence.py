"""Cross-backend equivalence: vectorized engines == generator engine.

The vectorized engines' contract is not "produces a valid MIS" but
"reproduces the generator engine's execution exactly" -- same per-node
decisions, same round numbers, same statistics down to message, bit, and
tx/rx/idle counters, for identical ``(graph, seed, rng)``.  These tests
diff complete :class:`NodeStats` across every corner-case graph, all six
vectorized algorithms (the two sleeping algorithms plus the four phased
baselines: Luby, greedy, Ghaffari, ABI), several seeds, and both RNG
stream formats, plus the protocol knobs and the engine selection logic in
the API.  Hypothesis differential tests extend the same diff to random
graphs the fixed corner-case list never tried, including graphs the
array-native CSR build makes (``GraphArrays.from_edges`` on raw endpoints,
the v2 gnp sampler, the deterministic topologies).
"""

from dataclasses import asdict

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import GRAPH_CASES, kernel_mode, round_cap, run_mis

from repro.core import schedule
from repro.graphs.arrays import (
    gnp_arrays_v2,
    grid_arrays,
    make_family_arrays,
    path_arrays,
    ring_arrays,
    star_arrays,
)
from repro.graphs.csr import GraphArrays
from repro.graphs.generators import caterpillar
from repro.sim.batch import resolve_engine
from repro.sim.fast_engine import VectorizedEngine, supports
from repro.sim.trace import make_trace

ALGORITHMS = ("sleeping", "fast-sleeping")
PHASED = ("luby", "greedy", "ghaffari", "abi")
ALL_VECTORIZED = ALGORITHMS + PHASED
SEEDS = (0, 1, 2)


def assert_equivalent(reference, vectorized):
    """Diff two RunResults field by field with a readable failure."""
    assert reference.n == vectorized.n
    assert reference.rounds == vectorized.rounds
    assert reference.outputs == vectorized.outputs
    assert reference.mis == vectorized.mis
    assert reference.undecided == vectorized.undecided
    assert reference.adjacency == vectorized.adjacency
    assert set(reference.node_stats) == set(vectorized.node_stats)
    for v in reference.node_stats:
        ref = asdict(reference.node_stats[v])
        vec = asdict(vectorized.node_stats[v])
        diff = {key: (ref[key], vec[key]) for key in ref if ref[key] != vec[key]}
        assert not diff, f"node {v!r} stats diverge (ref, vec): {diff}"


@pytest.mark.parametrize("algorithm", ALL_VECTORIZED)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "builder", [b for _, b in GRAPH_CASES], ids=[name for name, _ in GRAPH_CASES]
)
def test_engines_agree_exactly(builder, algorithm, seed):
    graph = builder()
    cap = round_cap(algorithm)
    reference = run_mis(
        graph, algorithm, seed=seed, engine="generators", **cap
    )
    vectorized = run_mis(
        graph, algorithm, seed=seed, engine="vectorized", **cap
    )
    assert_equivalent(reference, vectorized)


@pytest.mark.parametrize("algorithm", ALL_VECTORIZED)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "builder", [b for _, b in GRAPH_CASES], ids=[name for name, _ in GRAPH_CASES]
)
def test_engines_agree_exactly_batched_stream(builder, algorithm, seed):
    """The v2 (batched) stream keeps the same cross-engine contract."""
    graph = builder()
    cap = round_cap(algorithm)
    reference = run_mis(
        graph, algorithm, seed=seed, engine="generators", rng="batched",
        **cap,
    )
    vectorized = run_mis(
        graph, algorithm, seed=seed, engine="vectorized", rng="batched",
        **cap,
    )
    assert_equivalent(reference, vectorized)


class TestPhasedKnobs:
    """max_phases (the baselines' give-up knob) must stay equivalent."""

    @pytest.mark.parametrize("algorithm", PHASED)
    @pytest.mark.parametrize("max_phases", [1, 2, 50])
    def test_max_phases(self, gnp60, algorithm, max_phases):
        cap = round_cap(algorithm)
        assert_equivalent(
            run_mis(gnp60, algorithm, seed=5, max_phases=max_phases, **cap),
            run_mis(
                gnp60, algorithm, seed=5, max_phases=max_phases,
                engine="vectorized", **cap,
            ),
        )

    @pytest.mark.parametrize("algorithm", PHASED)
    def test_max_phases_validation(self, gnp60, algorithm):
        with pytest.raises(ValueError):
            run_mis(gnp60, algorithm, max_phases=0, engine="vectorized")


class TestProtocolKnobs:
    """The knobs the ablation study sweeps must stay equivalent too."""

    @pytest.mark.parametrize("coin_bias", [0.25, 0.75])
    def test_coin_bias(self, gnp60, coin_bias):
        for algorithm in ALGORITHMS:
            assert_equivalent(
                run_mis(gnp60, algorithm, seed=3, coin_bias=coin_bias),
                run_mis(
                    gnp60, algorithm, seed=3, coin_bias=coin_bias,
                    engine="vectorized",
                ),
            )

    @pytest.mark.parametrize("constant", [2, 4, 16])
    def test_greedy_constant(self, gnp60, constant):
        assert_equivalent(
            run_mis(gnp60, "fast-sleeping", seed=5, greedy_constant=constant),
            run_mis(
                gnp60, "fast-sleeping", seed=5, greedy_constant=constant,
                engine="vectorized",
            ),
        )

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_depth_override(self, gnp60, depth):
        for algorithm in ALGORITHMS:
            assert_equivalent(
                run_mis(gnp60, algorithm, seed=7, depth=depth),
                run_mis(
                    gnp60, algorithm, seed=7, depth=depth, engine="vectorized"
                ),
            )


class TestGreedyBaseIsPhasedGreedy:
    """Algorithm 2 at ``depth=0`` is one greedy base call over the whole
    graph: the phased ``greedy`` baseline after one discovery round, with
    its phases capped by the window (``(W - 1) // 3`` of them).  The
    discovery round is a flag broadcast to every neighbor, so it adds one
    awake round (a tx round, an idle one for a port-less node), ``deg``
    messages each way and ``2 deg`` bits, and it shifts every decision by
    one round."""

    @pytest.mark.parametrize("rng", ["pernode", "batched"])
    @pytest.mark.parametrize("family,n", [("gnp-dense", 500), ("gnp-sparse", 2000)])
    @pytest.mark.parametrize("constant", [None, 1])
    def test_depth0_is_greedy_plus_discovery(self, family, n, rng, constant):
        ga = make_family_arrays(family, n, seed=11)
        knobs = {} if constant is None else {"greedy_constant": constant}
        capped = {}
        if constant is not None:
            window = schedule.greedy_rounds(n, constant)
            capped = {"max_phases": (window - 1) // 3}
        fast = run_mis(
            ga, "fast-sleeping", seed=4, engine="vectorized", rng=rng,
            result="arrays", depth=0, **knobs,
        )
        greedy = run_mis(
            ga, "greedy", seed=4, engine="vectorized", rng=rng,
            result="arrays", **capped,
        )
        deg = ga.deg.astype(np.int64)

        def col(result, name):
            return getattr(result, name).astype(np.int64)

        def shifted(name):
            values = col(greedy, name)
            return np.where(values == -1, -1, values + 1)

        want = {
            "in_mis": col(greedy, "in_mis"),
            "rx_rounds": col(greedy, "rx_rounds"),
            "decision_round": shifted("decision_round"),
            "awake_at_decision": shifted("awake_at_decision"),
            "awake_rounds": col(greedy, "awake_rounds") + 1,
            "messages_received": col(greedy, "messages_received") + deg,
            "messages_sent": col(greedy, "messages_sent") + deg,
            "bits_sent": col(greedy, "bits_sent") + 2 * deg,
            "tx_rounds": col(greedy, "tx_rounds") + (deg > 0),
            "idle_rounds": col(greedy, "idle_rounds") + (deg == 0),
        }
        for name, values in want.items():
            np.testing.assert_array_equal(col(fast, name), values, name)
        if constant is not None:
            # The cap really binds: some base nodes run out of window.
            assert (col(fast, "in_mis") == -1).any()


class TestLargeBaseCalls:
    """Numpy base calls of thousands of nodes, each a multi-phase
    shrinking frontier, against the generator engine: every ``NodeStats``
    field, the round count and the truncation flags."""

    @pytest.mark.parametrize(
        "rng,knobs",
        [
            ("pernode", {"depth": 0, "greedy_constant": 1}),
            ("batched", {"depth": 0, "greedy_constant": 1}),
            ("batched", {"depth": 1}),
        ],
        ids=["pernode-depth0", "batched-depth0", "batched-depth1"],
    )
    def test_sparse_1e4_matches_generator_engine(self, rng, knobs):
        ga = make_family_arrays("gnp-sparse", 10_000, seed=2)
        # Seed 3 truncates some nodes at greedy_constant=1 on both streams.
        reference = run_mis(
            ga.adjacency, "fast-sleeping", seed=3, engine="generators",
            rng=rng, **knobs,
        )
        engine = VectorizedEngine(
            ga, "fast-sleeping", seed=3, rng=rng, **knobs
        )
        assert_equivalent(reference, engine.run())
        truncated = {
            v for v, p in reference.protocols.items() if p.base_truncated
        }
        assert truncated == {
            ga.node_ids[i] for i in np.flatnonzero(engine.base_truncated)
        }
        if knobs.get("greedy_constant") == 1:
            assert truncated  # the window cuts the loop short


class TestEngineSelection:
    def test_supports_vectorized_algorithms(self):
        for algorithm in ALL_VECTORIZED:
            assert supports(algorithm), algorithm
        assert not supports("seq-greedy")  # not a vectorized (or solve_mis)
        assert not supports("coloring")  # algorithm at all

    def test_supports_rejects_tracing_and_congest(self):
        assert not supports("sleeping", trace=make_trace(enabled=True))
        assert not supports("sleeping", congest_bit_limit=32)
        assert not supports("sleeping", loss_rate=0.5)
        assert not supports("sleeping", unknown_knob=1)
        assert not supports("luby", congest_bit_limit=32)

    def test_supports_checks_per_algorithm_kwargs(self):
        for algorithm in PHASED:
            assert supports(algorithm, max_phases=10)
            assert not supports(algorithm, coin_bias=0.4)  # sleeping-only
        assert supports("fast-sleeping", greedy_constant=8)
        assert not supports("fast-sleeping", max_phases=10)  # phased-only

    def test_auto_resolves_per_configuration(self):
        for algorithm in ALL_VECTORIZED:
            assert resolve_engine("auto", algorithm) == "vectorized"
        assert (
            resolve_engine("auto", "sleeping", congest_bit_limit=16)
            == "generators"
        )
        assert (
            resolve_engine("auto", "luby", congest_bit_limit=16)
            == "generators"
        )
        assert (
            resolve_engine("auto", "ghaffari", congest_bit_limit=16)
            == "generators"
        )
        assert resolve_engine("generators", "sleeping") == "generators"
        assert resolve_engine("generators", "ghaffari") == "generators"

    def test_auto_never_silently_falls_back_when_vectorizable(self):
        """Regression: every algorithm with a vectorized path must take it.

        The capability registry is the source of truth; if an algorithm
        is registered there, ``engine="auto"`` resolving to the generator
        engine is a dispatch bug (the PR 3 era shipped exactly that state
        for ghaffari/abi).  ``result="auto"`` doubles as the witness at
        the API level: it yields :class:`ArrayRunResult` exactly when a
        vectorized engine actually ran the trial.
        """
        from repro.api import algorithm_names
        from repro.sim.array_result import ArrayRunResult
        from repro.sim.fast_engine import ENGINE_CAPABILITIES

        assert set(algorithm_names()) == set(ENGINE_CAPABILITIES)
        graph = {0: (1,), 1: (0, 2), 2: (1,)}
        for algorithm in algorithm_names():
            assert resolve_engine("auto", algorithm) == "vectorized"
            ran = run_mis(
                graph, algorithm, engine="auto", result="auto",
                **round_cap(algorithm),
            )
            assert isinstance(ran, ArrayRunResult), algorithm

    def test_vectorized_request_fails_loudly_when_unsupported(self):
        with pytest.raises(ValueError):
            resolve_engine("vectorized", "seq-greedy")
        with pytest.raises(ValueError):
            resolve_engine("vectorized", "luby", congest_bit_limit=16)
        with pytest.raises(ValueError):
            resolve_engine("vectorized", "ghaffari", loss_rate=0.5)
        with pytest.raises(ValueError):
            resolve_engine("bogus", "sleeping")

    def test_auto_engine_through_api_matches_reference(self, gnp60):
        assert_equivalent(
            run_mis(gnp60, "fast-sleeping", seed=11),
            run_mis(gnp60, "fast-sleeping", seed=11, engine="auto"),
        )

    def test_vectorized_has_no_protocols(self, gnp60):
        result = run_mis(gnp60, "sleeping", seed=0, engine="vectorized")
        assert result.protocols == {}
        reference = run_mis(gnp60, "sleeping", seed=0)
        assert reference.protocols  # the generator engine keeps them


@st.composite
def builder_made_arrays(draw):
    """A small array-native :class:`GraphArrays` from the one CSR build:
    ``from_edges`` on raw endpoints (self-loops and duplicates in both
    orientations included), a v2 gnp graph, or a deterministic topology."""
    kind = draw(
        st.sampled_from(("edges", "gnp-v2", "ring", "path", "star", "grid"))
    )
    n = draw(st.integers(min_value=1, max_value=32))
    if kind == "edges":
        k = draw(st.integers(min_value=0, max_value=3 * n))
        node = st.integers(min_value=0, max_value=n - 1)
        u = draw(st.lists(node, min_size=k, max_size=k))
        v = draw(st.lists(node, min_size=k, max_size=k))
        return GraphArrays.from_edges(n, u, v)
    if kind == "gnp-v2":
        p = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6)))
        return gnp_arrays_v2(n, p, seed=draw(st.integers(0, 2**16)))
    if kind == "grid":
        rows = draw(st.integers(min_value=1, max_value=6))
        return grid_arrays(rows, draw(st.integers(min_value=1, max_value=6)))
    return {"ring": ring_arrays, "path": path_arrays, "star": star_arrays}[
        kind
    ](n)


@st.composite
def random_small_graphs(draw):
    """A small random graph: gnp, Barabasi-Albert, random geometric, a
    random tree or caterpillar, optionally padded with isolated nodes or
    joined to a second component -- or a builder-made :class:`GraphArrays`
    (:func:`builder_made_arrays`), taken as it is."""
    kind = draw(
        st.sampled_from(
            ("gnp", "ba", "geometric", "tree", "caterpillar", "arrays")
        )
    )
    if kind == "arrays":
        return draw(builder_made_arrays())
    n = draw(st.integers(min_value=1, max_value=32))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if kind == "gnp":
        p = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6)))
        graph = nx.gnp_random_graph(n, p, seed=seed)
    elif kind == "ba":
        m = draw(st.integers(min_value=1, max_value=3))
        graph = (
            nx.barabasi_albert_graph(n, m, seed=seed)
            if n > m else nx.complete_graph(n)
        )
    elif kind == "geometric":
        radius = draw(st.sampled_from((0.15, 0.3, 0.5)))
        graph = nx.Graph(nx.random_geometric_graph(n, radius, seed=seed).edges)
        graph.add_nodes_from(range(n))
    elif kind == "caterpillar":
        graph = caterpillar(n, seed=seed)
    else:
        graph = nx.random_labeled_tree(n, seed=seed)
    if draw(st.booleans()):
        graph = nx.disjoint_union(graph, nx.path_graph(draw(
            st.integers(min_value=1, max_value=5)
        )))
    graph.add_nodes_from(
        range(len(graph), len(graph) + draw(st.integers(0, 3)))
    )
    return graph


#: (algorithm, protocol kwargs) pairs the differential test draws from:
#: every phased baseline under a tiny, small, and absent phase budget,
#: Algorithm 2 with greedy windows short enough to truncate base cases --
#: at the default depth and at depths 0 and 1, whose base calls are large
#: enough to run (and truncate) multi-phase greedy loops on these sizes --
#: and Algorithm 1 at its defaults.
DIFFERENTIAL_CONFIGS = [("sleeping", {})] + [
    (algorithm, {"max_phases": max_phases})
    for algorithm in PHASED
    for max_phases in (1, 3, None)
] + [
    ("fast-sleeping", {"greedy_constant": c, "depth": depth})
    for c in (1, 2)
    for depth in (None, 0, 1)
]


#: The configs the numpy path of the sleeping engine is fuzzed on with its
#: scalar kernel off (the phased engines have no scalar kernel).
SLEEPING_CONFIGS = [
    config for config in DIFFERENTIAL_CONFIGS if config[0] in ALGORITHMS
]


class TestRandomGraphDifferential:
    """Generator vs vectorized engine on random graphs.

    The vectorized engines derive every live set from in-loop membership
    (the live-set invariant of :mod:`repro.sim.fast_phased`) instead of
    replaying the protocols' per-node sets; any execution where the two
    diverge shows up here as a ``NodeStats`` diff.  Graphs this small run
    almost wholly on the sleeping engine's scalar kernel, so the
    ``test_array_path_*`` twins run the sleeping configs with the kernel
    off, fuzzing the numpy path.
    """

    @staticmethod
    def _assert_engines_agree(graph, config, rng, seed, kernel):
        algorithm, kwargs = config
        kwargs = {**kwargs, **round_cap(algorithm)}
        # A builder-made graph runs as it is on the vectorized engine and
        # as its adjacency view on the generator engine.
        reference = graph.adjacency if isinstance(graph, GraphArrays) else graph
        with kernel_mode(kernel):
            vectorized = run_mis(
                graph, algorithm, seed=seed, engine="vectorized", rng=rng,
                **kwargs,
            )
        assert_equivalent(
            run_mis(
                reference, algorithm, seed=seed, engine="generators", rng=rng,
                **kwargs,
            ),
            vectorized,
        )

    @settings(
        max_examples=800,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        random_small_graphs(),
        st.sampled_from(DIFFERENTIAL_CONFIGS),
        st.sampled_from(("pernode", "batched")),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_engines_agree_on_random_graphs(self, graph, config, rng, seed):
        self._assert_engines_agree(graph, config, rng, seed, "default")

    @settings(
        max_examples=800,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        random_small_graphs(),
        st.sampled_from(SLEEPING_CONFIGS),
        st.sampled_from(("pernode", "batched")),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_array_path_agrees_on_random_graphs(
        self, graph, config, rng, seed
    ):
        self._assert_engines_agree(graph, config, rng, seed, "array")

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        builder_made_arrays(),
        st.sampled_from(DIFFERENTIAL_CONFIGS),
        st.sampled_from(("pernode", "batched")),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_engines_agree_on_builder_made_graphs(
        self, graph, config, rng, seed
    ):
        """Hypothesis draws few builder-made graphs among the others, so
        they get a budget of their own."""
        self._assert_engines_agree(graph, config, rng, seed, "default")

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        builder_made_arrays(),
        st.sampled_from(SLEEPING_CONFIGS),
        st.sampled_from(("pernode", "batched")),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_array_path_agrees_on_builder_made_graphs(
        self, graph, config, rng, seed
    ):
        self._assert_engines_agree(graph, config, rng, seed, "array")
