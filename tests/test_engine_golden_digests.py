"""Golden digests of whole vectorized-engine results on edge-bound graphs.

The cross-engine equivalence suite diffs every statistic against the
generator engine, but only on graphs of at most 60 nodes, where the
engines' per-edge bookkeeping (received-message counts, live-set pruning,
in-call edge filtering) is never the dominant cost and never exercised at
depth.  These cases pin a sha256 over *every* ``ArrayRunResult`` column
on graphs two orders of magnitude larger -- all six vectorized algorithms
on ``gnp-sparse`` n = 5000, and the two edge-bound workhorses on
``gnp-dense`` n = 1500 (~1.1x10^6 directed edges) -- so an engine
optimisation that changes any count, round label, or decision fails here
at sizes the equivalence suite never runs.

Every v2 gnp graph is built by the chunked CSR build
(:meth:`GraphArrays.from_distinct_pair_chunks`), so :data:`CSR_CASES`
pin a sha256 of ``src``/``dst``/``deg`` for four of them: a dense family
and a sparse one forced through small chunks (the sparse one's early
chunks span more rows than they hold pairs), and two graphs that fit in
one default chunk, ``gnp_arrays_v2(400, 0.05, seed=3)`` and a sparse
n = 10^5 graph.  The digests were generated before the build changed
from two passes to one, and must not move with any builder change.
:data:`FROM_EDGES_CASES` do the same for graphs built by
:meth:`GraphArrays.from_edges`: the legacy samplers, the deterministic
topologies, and one raw call with self-loops and duplicates.

:data:`SMALL_CASES` pin the other end: every vectorized algorithm, on
both streams, over seven topologies of two to nine nodes, where every
recursion call and base case is tiny; :data:`GREEDY_BASE_CASES` pin
Algorithm 2 on a graph whose greedy base cases hold several nodes.
:class:`TestSmallTopologies` checks hand-checkable facts on the same
runs.

Every digest of the sleeping engine is checked under each kernel mode
of :data:`helpers.KERNEL_MODES`: with its scalar kernel off, at its
default thresholds, and taking every call.

Engine and builder optimisations must leave every digest unchanged.  A
deliberate change of execution (a new stream format, a protocol fix)
refreshes them with ``python tests/test_engine_golden_digests.py``.
"""

import hashlib

import numpy as np
import pytest

import repro.graphs.arrays as arrays_mod
from repro.core import schedule
from repro.graphs.arrays import make_family_arrays
from repro.graphs.csr import GraphArrays
from repro.sim.batch import make_vectorized_engine
from repro.sim.fast_engine import SLEEPING_ALGORITHMS

from helpers import KERNEL_MODES, kernel_mode, round_cap

#: ((family, n, graph seed, algorithm, trial seed), sha256 of the result).
GOLDEN_CASES = (
    (
        ("gnp-sparse", 5000, 11, "sleeping", 3),
        "93ca57b2b762236184733764aea489b6a192bf972eb4ff191be72de6df3c6ae3",
    ),
    (
        ("gnp-sparse", 5000, 11, "fast-sleeping", 3),
        "c3492fd8feee5f74588a68bbc132ff585aef5bd32a77444345404c88289ec882",
    ),
    (
        ("gnp-sparse", 5000, 11, "luby", 3),
        "c6b7209989e891e9e0d68071905e17d056427fc3501ebcfc4efef1a0710c84a0",
    ),
    (
        ("gnp-sparse", 5000, 11, "greedy", 3),
        "7f2c59fa5d372339519353b89b25214545e51b64231fe7cf11ef46ffa4b9ded0",
    ),
    (
        ("gnp-sparse", 5000, 11, "ghaffari", 3),
        "35f73d547a5b55d0200141adbe3ad02cc6131a9f315d815bc7ffbaa5d9301be7",
    ),
    (
        ("gnp-sparse", 5000, 11, "abi", 3),
        "58e234a9daffc73062f4514c06edf45174dfead48b39912472fc587c87a0ea98",
    ),
    (
        ("gnp-dense", 1500, 12, "fast-sleeping", 4),
        "ce6beabda5c8cc9c4985259356e78ba8583c35b2c1f010a6c98d639940ce6d80",
    ),
    (
        ("gnp-dense", 1500, 12, "luby", 4),
        "1cbf2ed6edb43a90e8a494ee7415075978e96d9392ed5a5a1c28c0b66a207c46",
    ),
)
GOLDEN = dict(GOLDEN_CASES)


def with_kernel_modes(cases, algorithm_of):
    """``(case, kernel mode)`` pairs: a sleeping-engine case under every
    mode of :data:`helpers.KERNEL_MODES`, a phased one (no scalar
    kernel) once."""
    return [
        pytest.param(
            case,
            mode,
            id="-".join(
                map(str, case + (() if mode == "default" else (mode,)))
            ),
        )
        for case in cases
        for mode in (
            KERNEL_MODES if algorithm_of(case) in SLEEPING_ALGORITHMS
            else ("default",)
        )
    ]

#: Every per-node column, in a fixed order, with the dtype it is hashed
#: at (independent of the engine's storage dtype choices).
COLUMNS = (
    ("in_mis", np.int8),
    ("awake_rounds", np.int64),
    ("sleep_rounds", np.int64),
    ("tx_rounds", np.int64),
    ("rx_rounds", np.int64),
    ("idle_rounds", np.int64),
    ("messages_sent", np.int64),
    ("bits_sent", np.int64),
    ("messages_received", np.int64),
    ("decision_round", np.int64),
    ("awake_at_decision", np.int64),
    ("finish_round", np.int64),
)


def result_digest(result) -> str:
    """sha256 over ``(n, rounds)`` and every column at a fixed dtype."""
    h = hashlib.sha256()
    h.update(f"{result.n}:{result.rounds}".encode())
    for name, dtype in COLUMNS:
        column = getattr(result, name)
        # Integer-valued columns only: an object label column means the
        # run passed int64, which these sizes must never reach.
        assert column.dtype.kind == "i", (name, column.dtype)
        h.update(name.encode())
        h.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return h.hexdigest()


def run_case(family, n, graph_seed, algorithm, seed):
    ga = make_family_arrays(family, n, seed=graph_seed, graph_rng="batched")
    result = make_vectorized_engine(
        ga, algorithm, seed=seed, rng="batched", result="arrays",
        **round_cap(algorithm),
    ).run()
    assert result.is_valid_mis() and result.all_finished
    return result


@pytest.mark.parametrize(
    "case,kernel", with_kernel_modes(GOLDEN, lambda case: case[3])
)
def test_result_digest_is_pinned(case, kernel):
    with kernel_mode(kernel):
        assert result_digest(run_case(*case)) == GOLDEN[case]


def star_with_isolated_nodes():
    """400 nodes: a star on 0..60 (centre 0), a sparse random component
    on 100..349, and the rest isolated -- so some senders have no ports
    and every broadcast splits into tx and idle rounds."""
    rng = np.random.default_rng(24)
    u = np.concatenate(
        [np.zeros(60, dtype=np.int64), rng.integers(100, 350, 600)]
    )
    v = np.concatenate([np.arange(1, 61), rng.integers(100, 350, 600)])
    return GraphArrays.from_edges(400, u, v)


#: Graphs of :data:`PATH_CASES` and :data:`FLOAT_CASES`, by name.
PATH_GRAPHS = {
    "gnp-sparse-2000": lambda: make_family_arrays(
        "gnp-sparse", 2000, seed=13, graph_rng="batched"
    ),
    "star-plus-isolated": star_with_isolated_nodes,
    "gnp-sparse-300": lambda: make_family_arrays(
        "gnp-sparse", 300, seed=14, graph_rng="batched"
    ),
}

#: Engine paths :data:`GOLDEN_CASES` never take, pinned the same way:
#: the per-node stream (``rng="pernode"``, the eager coin matrix and
#: per-node rank draws), and a graph with isolated nodes.  ((graph name,
#: algorithm, rng stream, trial seed), sha256 of the result).
PATH_CASES = (
    (
        ("gnp-sparse-2000", "sleeping", "pernode", 5),
        "36c2859b8b0209eb61046cf5419834c0a3647d59b34526ef94107f41a0e97fc0",
    ),
    (
        ("gnp-sparse-2000", "fast-sleeping", "pernode", 5),
        "464cc0a0d413331109f5d7f13a40026ea74a1621bd083a8db978b1d847e74098",
    ),
    (
        ("star-plus-isolated", "sleeping", "batched", 6),
        "cdcc1aa40637f243ecb86b0a5791c91158261b4be3349b3d7583f6dda74191b7",
    ),
    (
        ("star-plus-isolated", "fast-sleeping", "batched", 6),
        "1a031868688188cf668ee6926a068fb0a689a78c7371e69cceb9b2365f36d7d7",
    ),
    (
        ("star-plus-isolated", "fast-sleeping", "pernode", 6),
        "2a0d136f0b9dd58560c308688bed15735dfb06a96d45c07258a20c5cfaa7d0f2",
    ),
)
PATH_GOLDEN = dict(PATH_CASES)


def run_path_case(graph, algorithm, rng, seed, **protocol_kwargs):
    result = make_vectorized_engine(
        PATH_GRAPHS[graph](), algorithm, seed=seed, rng=rng,
        result="arrays", **protocol_kwargs,
    ).run()
    assert result.is_valid_mis() and result.all_finished
    return result


@pytest.mark.parametrize(
    "case,kernel", with_kernel_modes(PATH_GOLDEN, lambda case: case[1])
)
def test_engine_path_digest_is_pinned(case, kernel):
    with kernel_mode(kernel):
        assert result_digest(run_path_case(*case)) == PATH_GOLDEN[case]


def float_result_digest(result) -> str:
    """sha256 over ``(n, rounds)`` and every column at its own dtype.

    For runs deep enough that the round labels (``sleep_rounds``,
    ``decision_round``, ``finish_round``) pass int64, which
    :func:`result_digest` refuses.  Those columns hold exact Python ints
    and are hashed at float64, the dtype the pins were first taken at:
    the exact labels round to exactly those values.  The dtype is hashed
    too.
    """
    h = hashlib.sha256()
    h.update(f"{result.n}:{result.rounds}".encode())
    for name, _ in COLUMNS:
        column = getattr(result, name)
        if name in LABEL_COLUMNS:
            column = column.astype(np.float64)
        column = np.ascontiguousarray(column)
        h.update(f"{name}:{column.dtype.str}".encode())
        h.update(column.tobytes())
    return h.hexdigest()


#: The round-label columns, exact Python ints past int64.
LABEL_COLUMNS = ("sleep_rounds", "decision_round", "finish_round")

#: Depth 64 on gnp-sparse n = 300: every round label is past 2^63, so
#: the label columns are object arrays of Python ints.  (algorithm,
#: sha256 of the result).
FLOAT_CASES = (
    (
        "sleeping",
        "8dcdfae67757c0c6e7124abe31f8f4ef3134e80f13adca79f84eb276653cb7f6",
    ),
    (
        "fast-sleeping",
        "c5fe7e77c2f0ef061d69aafc7f90fd94b2054ce3abdc0c31fc486fe4f147af2b",
    ),
)
FLOAT_GOLDEN = dict(FLOAT_CASES)


def run_float_case(algorithm):
    result = run_path_case("gnp-sparse-300", algorithm, "batched", 7, depth=64)
    for name in LABEL_COLUMNS:
        column = getattr(result, name)
        assert column.dtype == object, name
        assert {type(v) for v in column.tolist()} == {int}, name
    return result


@pytest.mark.parametrize(
    "case,kernel",
    with_kernel_modes([(a,) for a in FLOAT_GOLDEN], lambda case: case[0]),
)
def test_float_regime_digest_is_pinned(case, kernel):
    (algorithm,) = case
    with kernel_mode(kernel):
        digest = float_result_digest(run_float_case(algorithm))
    assert digest == FLOAT_GOLDEN[algorithm]


#: Small topologies, by name: every recursion call and greedy base case
#: on them has a handful of nodes.
SMALL_GRAPHS = {
    "star-9": lambda: arrays_mod.star_arrays(9),
    "path-8": lambda: arrays_mod.path_arrays(8),
    "grid-3x3": lambda: arrays_mod.grid_arrays(3, 3),
    "K2": lambda: arrays_mod.complete_arrays(2),
    "triangle": lambda: arrays_mod.complete_arrays(3),
    "K4": lambda: arrays_mod.complete_arrays(4),
    "edge-plus-isolated": lambda: GraphArrays.from_edges(
        3, np.array([0]), np.array([1])
    ),
}

#: Trial seeds each small topology runs under.
SMALL_SEEDS = range(4)

ALL_ALGORITHMS = (
    "sleeping", "fast-sleeping", "luby", "greedy", "ghaffari", "abi",
)


def run_small(graph, algorithm, rng, seed):
    return make_vectorized_engine(
        graph, algorithm, seed=seed, rng=rng, result="arrays",
        **round_cap(algorithm),
    ).run()


def small_topology_digest(algorithm, rng):
    """sha256 over every small topology and seed, in a fixed order."""
    h = hashlib.sha256()
    for name, build in SMALL_GRAPHS.items():
        graph = build()
        for seed in SMALL_SEEDS:
            result = run_small(graph, algorithm, rng, seed)
            h.update(f"{name}:{seed}:{result_digest(result)}".encode())
    return h.hexdigest()


#: ((algorithm, rng stream), sha256 over all small topologies and seeds).
SMALL_CASES = (
    (
        ("sleeping", "pernode"),
        "e6e7253a974eabc6543fe870ec8d5773c452eb207ab0a776648a598eeb36d74d",
    ),
    (
        ("sleeping", "batched"),
        "26044d417f806771ca7673aea61913cddb6ff06ee171a1ca5c9e62afd26f0153",
    ),
    (
        ("fast-sleeping", "pernode"),
        "83611ed62ca1bcddf2cba9668d53f84a1888ecfbd3f57142241496673c21d41e",
    ),
    (
        ("fast-sleeping", "batched"),
        "0a02b078bb2ac4d4b837f411c14d09b612b4f4a37958c6620a2f25e0239f2442",
    ),
    (
        ("luby", "pernode"),
        "5d9ec7510afdc6713fb5a8b4bfb5ae58f7b782f9e4a01c4571e79ea553c69241",
    ),
    (
        ("luby", "batched"),
        "363e19c86bf9fc5e364dd55b99cd2edaaadc22474e1b1b20ad76f21c6a0a6bc5",
    ),
    (
        ("greedy", "pernode"),
        "666cac124243fb41470860f9a5cdc0165a10e2331b6ea5a36288e213d1909f1b",
    ),
    (
        ("greedy", "batched"),
        "6170eb9a59d1aa9371d6dba89847974e80b044042723ef75dccf055c4a94e7f5",
    ),
    (
        ("ghaffari", "pernode"),
        "2d4c526d8a36d002ebbe2ee1e646b0aefbd643689f0c28580ec5afaee2c496d7",
    ),
    (
        ("ghaffari", "batched"),
        "cc62879d9c50089ea6725ca5c53e9790f9fe3b1d8dc5077f0fb9644ad2f2779e",
    ),
    (
        ("abi", "pernode"),
        "da12a8bf978eaac864f39f95ffea01ae997931abbadbde97c3c3f6a9d11ff7ad",
    ),
    (
        ("abi", "batched"),
        "d04d8c753f49dc04a738e8aec308e31b4f0f2a98f057afd6d411e560cc3c52ea",
    ),
)
SMALL_GOLDEN = dict(SMALL_CASES)


@pytest.mark.parametrize(
    "case,kernel", with_kernel_modes(SMALL_GOLDEN, lambda case: case[0])
)
def test_small_topology_digest_is_pinned(case, kernel):
    with kernel_mode(kernel):
        assert small_topology_digest(*case) == SMALL_GOLDEN[case]


#: Algorithm 2 on gnp-sparse n = 300, truncated to depth 3 or 4 so that
#: its greedy base cases hold 2 to 45 nodes (at the default depth 8 the
#: recursion decides everyone before the base).  ((rng stream, trial
#: seed, depth), sha256 of the result).
GREEDY_BASE_CASES = (
    (
        ("pernode", 8, 3),
        "64ed89a3e93b9ef6cb29d76bdf59458867a06b1ff78c0e56a93fcdbaf4fc9ad0",
    ),
    (
        ("pernode", 8, 4),
        "aa282f9ca0513d36261570efdf7f6b174dbfe98795ac28874e56477275732219",
    ),
    (
        ("batched", 8, 3),
        "582868f2261df3595a1d9c3cc38df58cbd0bbe438c454420bfdcc08670097fba",
    ),
    (
        ("batched", 8, 4),
        "1f0ce5bab04c8d62ae07f782098510d130b55497785bab3b3d4b8fecf83ea66c",
    ),
)
GREEDY_BASE_GOLDEN = dict(GREEDY_BASE_CASES)


def run_greedy_base_case(rng, seed, depth):
    return run_path_case(
        "gnp-sparse-300", "fast-sleeping", rng, seed, depth=depth
    )


@pytest.mark.parametrize(
    "case,kernel",
    with_kernel_modes(GREEDY_BASE_GOLDEN, lambda case: "fast-sleeping"),
)
def test_greedy_base_digest_is_pinned(case, kernel):
    with kernel_mode(kernel):
        digest = result_digest(run_greedy_base_case(*case))
    assert digest == GREEDY_BASE_GOLDEN[case]


class TestSmallTopologies:
    """Hand-checkable facts on the small topologies, for every vectorized
    algorithm on both streams (aomond-imt's ``test_star``/``test_chain``/
    ``test_grid`` idiom)."""

    @pytest.mark.parametrize("rng", ("pernode", "batched"))
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    @pytest.mark.parametrize("name", list(SMALL_GRAPHS))
    def test_facts(self, name, algorithm, rng):
        graph = SMALL_GRAPHS[name]()
        for seed in SMALL_SEEDS:
            result = run_small(graph, algorithm, rng, seed)
            # Nobody is awake or asleep past its own last round.
            np.testing.assert_array_equal(
                result.awake_rounds + result.sleep_rounds, result.finish_round
            )
            if algorithm in ("sleeping", "fast-sleeping"):
                assert result.rounds == schedule_duration(algorithm, graph.n)
                assert (result.finish_round == result.rounds).all()
            else:
                assert (result.sleep_rounds == 0).all()
            mis = set(np.flatnonzero(result.mis_mask).tolist())
            assert result.all_finished and is_dominating(graph, mis)
            if algorithm == "sleeping" and not result.is_valid_mis():
                # Algorithm 1 is correct with high probability only: two
                # neighbors whose coins agree at every level meet in a
                # depth-0 call, where everyone joins.  On two or three
                # nodes that happens at a few of these seeds.
                continue
            assert result.is_valid_mis()
            if name == "star-9":
                assert mis in ({0}, set(range(1, 9)))
            elif name in ("K2", "triangle", "K4"):
                assert len(mis) == 1
            elif name == "edge-plus-isolated":
                assert 2 in mis and len(mis & {0, 1}) == 1
            elif name == "path-8":
                assert 3 <= len(mis) <= 4


def is_dominating(graph, mis):
    """Every node is in ``mis`` or has a neighbor in it."""
    return all(
        v in mis or not mis.isdisjoint(nbrs)
        for v, nbrs in graph.adjacency.items()
    )


def schedule_duration(algorithm, n):
    """The full recursion schedule's length for Algorithm 1 or 2."""
    if algorithm == "sleeping":
        return schedule.call_duration(schedule.recursion_depth(n))
    return schedule.fast_call_duration(
        schedule.truncated_depth(n), schedule.greedy_rounds(n)
    )


#: Small refills, so both streamed cases split into hundreds of chunks.
STREAM_CHUNK = 1 << 12

#: ((n, mean degree or None for p = 1/2, graph seed, refill chunk or None
#: for the default), sha256 of ``src``/``dst``/``deg``) for
#: ``gnp_arrays_v2``.
CSR_CASES = (
    (
        (3000, None, 21, STREAM_CHUNK),
        "6e1c2b5f596d2f64a925df8190ee519df26fbb2ed2ab33435cf153cc69561be4",
    ),
    (
        (200_000, 8, 22, STREAM_CHUNK),
        "7b6e35dd6cf8d1a94e4b92b1c3a04ebdc4f5018cbff1c20aa02ddf2b405466ad",
    ),
    (
        (400, 20, 3, None),
        "867ec3141e66ade95ca980a4e80c8f34462e45b776b0d60bf48055c649933cbd",
    ),
    (
        (100_000, 8, 23, None),
        "e8f84a4ff29772338e176fced3b47b1561119dc4cbc69a0b73a570eff42098b5",
    ),
)
CSR_GOLDEN = dict(CSR_CASES)


#: The CSR arrays and the dtype each is hashed at.
CSR_FIELDS = (
    ("src", np.int32),
    ("dst", np.int32),
    ("deg", np.int64),
)


def edge_digest(ga) -> str:
    """sha256 over ``(n, m)`` and ``src``/``dst``/``deg`` at fixed dtypes."""
    h = hashlib.sha256()
    h.update(f"{ga.n}:{ga.m}".encode())
    for name, dtype in CSR_FIELDS:
        h.update(name.encode())
        h.update(np.ascontiguousarray(getattr(ga, name), dtype=dtype).tobytes())
    return h.hexdigest()


def build_csr(n, mean_degree, seed, chunk):
    """``gnp_arrays_v2`` refilling ``chunk`` draws at a time (``None``:
    the default :data:`~repro.graphs.arrays.GNP_V2_CHUNK`)."""
    p = 0.5 if mean_degree is None else mean_degree / n
    default = arrays_mod.GNP_V2_CHUNK
    arrays_mod.GNP_V2_CHUNK = chunk or default
    try:
        return arrays_mod.gnp_arrays_v2(n, p, seed=seed)
    finally:
        arrays_mod.GNP_V2_CHUNK = default


@pytest.mark.parametrize(
    "case", list(CSR_GOLDEN), ids=["-".join(map(str, c)) for c in CSR_GOLDEN]
)
def test_csr_digest_is_pinned(case):
    assert edge_digest(build_csr(*case)) == CSR_GOLDEN[case]

#: Graphs built through :meth:`GraphArrays.from_edges` (the legacy
#: samplers, the deterministic topologies, and one raw call whose input
#: has self-loops and duplicates in both orientations), by name.  Their
#: ``src``/``dst``/``deg`` digests were generated while ``from_edges``
#: still built through its own lo-major path, and must not move when it
#: feeds the chunked build instead.
FROM_EDGES_BUILDS = {
    "ring-1": lambda: arrays_mod.ring_arrays(1),
    "ring-2": lambda: arrays_mod.ring_arrays(2),
    "ring-1000": lambda: arrays_mod.ring_arrays(1000),
    "path-7": lambda: arrays_mod.path_arrays(7),
    "star-50": lambda: arrays_mod.star_arrays(50),
    "grid-7x9": lambda: arrays_mod.grid_arrays(7, 9),
    "complete-40": lambda: arrays_mod.complete_arrays(40),
    "empty-5": lambda: arrays_mod.empty_arrays(5),
    "gnp-3000-0.003-5": lambda: arrays_mod.gnp_arrays(3000, 0.003, seed=5),
    "gnp-300-0.5-6": lambda: arrays_mod.gnp_arrays(300, 0.5, seed=6),
    "raw-loops-dups": lambda: GraphArrays.from_edges(
        12,
        np.array([0, 3, 3, 5, 1, 7, 7, 11, 2, 9, 4, 11, 0, 6, 10, 10]),
        np.array([3, 0, 3, 5, 7, 1, 1, 2, 11, 4, 9, 0, 11, 6, 8, 8]),
    ),
}

FROM_EDGES_CASES = (
    (
        "ring-1",
        "2e2a6931f9f16f6c7a1d2c956586c468d01aecc1a2418b1a36dcaa2d6fa45812",
    ),
    (
        "ring-2",
        "2c582e62bd28ed5c7128e0740a740ef7e7fb03bbcc9f5f112c1b5d8d2ef7035d",
    ),
    (
        "ring-1000",
        "cebf8b43fd41e73f6a6bfe89f8177a88344eef1a30f9bd61b8115f0710907a8d",
    ),
    (
        "path-7",
        "51b0575cb9b725136d6402cb9e89856969a8874270588e2de5cf115da917bed4",
    ),
    (
        "star-50",
        "a8e37bd6af260c113ddd075fc15ef70e967844a53bc60bce364d342e2de741ef",
    ),
    (
        "grid-7x9",
        "1ae2c766979eaf664ba9154e1b3f4eeeada84e5ea1aebe7ee69c49722dfabf94",
    ),
    (
        "complete-40",
        "05b3272be29193bd0cf09c43784ccf9d5f9cf2284c5451d48b966d4f92d305fa",
    ),
    (
        "empty-5",
        "efcef13d2fe88a2f528aa78375fab74e101d6b83e690913333770de8d823adf2",
    ),
    (
        "gnp-3000-0.003-5",
        "4e91043ffb1bb493c893fb031c744594980cf42cb1400fca6f10a47ef1d1c2e2",
    ),
    (
        "gnp-300-0.5-6",
        "575b2f23801e7c01fa3667e9056f7a2ae7cadf9c9ed65bc13964cd78b9dd96a9",
    ),
    (
        "raw-loops-dups",
        "f4116d2ae9ca8b7e3ac0f40f783b11159273d12fe878bc5bee549d738b44f6f5",
    ),
)
FROM_EDGES_GOLDEN = dict(FROM_EDGES_CASES)


@pytest.mark.parametrize("name", list(FROM_EDGES_BUILDS))
def test_from_edges_digest_is_pinned(name):
    assert edge_digest(FROM_EDGES_BUILDS[name]()) == FROM_EDGES_GOLDEN[name]


def float_sqrt_rows(positions):
    """Reference decode: the float triangular root the v2 sampler used
    before run-length decoding, corrected in exact integer arithmetic."""
    v = ((1.0 + np.sqrt(8.0 * positions + 1.0)) / 2.0).astype(np.int64)
    v -= v * (v - 1) // 2 > positions
    v += (v + 1) * v // 2 <= positions
    return positions - v * (v - 1) // 2, v


def tri(v):
    return v * (v - 1) // 2


#: Rows around which positions are decoded: tiny rows and powers of two,
#: then the first rows whose positions reach 2^50 (where ``8 x + 1``
#: leaves float64's exact range) and 2^52, and 10^8.
SMALL_ROWS = (1, 2, 3, 4, 5, 64, 1000, 4096, 10**4, 2**20 + 1)
LARGE_ROWS = (47_453_134, 94_906_266, 94_906_267, 10**8 - 1, 10**8)


def _decode_cases():
    """Chunks of strictly increasing positions.  The decode's transient
    is O(rows spanned), so no chunk here spans more than ~10^5 rows."""
    rng = np.random.default_rng(0)
    for v in SMALL_ROWS + LARGE_ROWS:
        edges = [x for x in (tri(v) - 1, tri(v), tri(v) + 1) if x >= 0]
        yield f"boundary-{v}", np.array(edges, dtype=np.int64)
        for x in edges:  # single-pair chunks
            yield f"single-{x}", np.array([x], dtype=np.int64)
    for v in (2, 64, 10**4, 10**8 - 5):  # dense: every position in a span
        yield f"dense-{v}", np.arange(
            tri(v) - min(v - 1, 50),
            tri(v) + min(3 * v // 2, 10**5) + 50,
            dtype=np.int64,
        )
    for v0, v1, k in ((1, 5000, 1000), (10**8 - 10**5, 10**8, 997)):
        # sparse: far more rows spanned than pairs held
        positions = rng.integers(tri(v0), tri(v1), size=k, dtype=np.int64)
        yield f"sparse-{v1}", np.unique(positions)


@pytest.mark.parametrize("name,positions", list(_decode_cases()))
def test_run_length_decode_matches_float_sqrt_reference(name, positions):
    lo, hi = arrays_mod._pair_rows(positions)
    ref_lo, ref_hi = float_sqrt_rows(positions)
    np.testing.assert_array_equal(hi, ref_hi)
    np.testing.assert_array_equal(lo, ref_lo)
    assert (0 <= lo).all() and (lo < hi).all()


def _print_table(cases, digest_of):
    for case in cases:
        case_line = repr(case).replace("'", '"')
        digest = digest_of(case)
        print(f'    (\n        {case_line},\n        "{digest}",\n    ),')


if __name__ == "__main__":  # regenerate the tables above
    _print_table(GOLDEN, lambda case: result_digest(run_case(*case)))
    _print_table(
        PATH_GOLDEN, lambda case: result_digest(run_path_case(*case))
    )
    _print_table(
        FLOAT_GOLDEN, lambda alg: float_result_digest(run_float_case(alg))
    )
    _print_table(
        SMALL_GOLDEN, lambda case: small_topology_digest(*case)
    )
    _print_table(
        GREEDY_BASE_GOLDEN,
        lambda case: result_digest(run_greedy_base_case(*case)),
    )
    _print_table(CSR_GOLDEN, lambda case: edge_digest(build_csr(*case)))
    _print_table(
        FROM_EDGES_BUILDS, lambda name: edge_digest(FROM_EDGES_BUILDS[name]())
    )
