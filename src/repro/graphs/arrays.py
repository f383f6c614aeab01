"""Array-native graph sources: sample straight into CSR edge arrays.

The classic pipeline builds a ``networkx.Graph``
(:mod:`repro.graphs.generators`), normalizes it into an adjacency dict,
and only then converts to the :class:`repro.graphs.csr.GraphArrays`
CSR view the vectorized engines consume.  At n = 10^5 those first two
steps -- a dict-of-dicts graph object plus a Python normalization pass --
cost more than the simulation itself (~70% of a batched sleeping trial).

This module skips them: each sampler here draws the edge list directly
into integer arrays and hands them to :meth:`GraphArrays.from_edges`,
never materializing a networkx object or an adjacency dict.  The dict
view stays *lazy* (built only if a generator-engine consumer asks), and
:meth:`GraphArrays.to_networkx` is the escape hatch back to a real
``networkx.Graph`` when one is wanted.

Exactness contract
------------------
Samplers are **edge-for-edge identical** to their networkx-built
counterparts in :mod:`repro.graphs.generators` for the same parameters
and seed: :func:`gnp_arrays` consumes ``random.Random(seed)`` draws in
exactly the order ``networkx.gnp_random_graph`` /
``networkx.fast_gnp_random_graph`` do (including the
:data:`~repro.graphs.generators.GNP_FAST_THRESHOLD` switchover), and the
deterministic topologies replicate the generators' labelings (including
``grid``'s string-sorted relabeling).  ``tests/test_graph_arrays.py``
pins this parity, which is what makes ``graph_source="arrays"`` a pure
performance choice: any seeded experiment produces bit-identical results
on either source.

:data:`ARRAY_FAMILIES` mirrors the :data:`repro.graphs.generators.FAMILIES`
registry for the families with an array-native sampler;
:func:`resolve_graph_source` maps the ``graph_source=`` choices
(:data:`GRAPH_SOURCES`: ``"auto"``/``"networkx"``/``"arrays"``) onto a
concrete source per family.

Versioned sampling streams (``graph_rng=``)
-------------------------------------------
Replaying ``random.Random``'s exact draw order is what pins the samplers
above to a Python skip loop: at n = 10^6 the v1 gnp sampler spends tens of
seconds appending edge tuples one geometric jump at a time.  Exactly as
:mod:`repro.sim.rng` did for the node streams, this module therefore
carries a second, **deliberately incompatible** sampling stream:

``"legacy"`` (v1, the default)
    The samplers above -- ``random.Random(seed)`` consumed in networkx's
    exact order, edge-for-edge identical to the networkx generators.
    Every graph seed recorded before v2 existed replays under it.

``"batched"`` (v2)
    :func:`gnp_arrays_v2`: whole geometric-skip arrays drawn from the
    counter-based splitmix64 stream
    (:func:`repro.sim.rng.graph_stream_key`), Batagelj--Brandes sampling
    vectorized.  Same G(n, p) distribution, *different* seeded graphs --
    the break is versioned (:data:`GRAPH_RNG_VERSIONS`), never silent:
    record ``graph_rng`` next to the seed like ``rng``.  Deterministic
    topologies (cycle/path/star/complete/empty) have no randomness, so
    both streams build the identical graph there.
"""

from __future__ import annotations

import math
import random
from contextlib import closing
from functools import partial
from typing import Callable, Dict, List

import numpy as np

from .._registry import unknown_name_error
from ..profiling import phase
from ..sim.rng import graph_stream_key, mix64_array, u64_to_unit_float
from .csr import CACHE_BLOCK, GraphArrays, build_worker
from .generators import FAMILIES, GNP_FAST_THRESHOLD

#: Graph-source choices accepted by ``graph_source=`` throughout the
#: package: ``"networkx"`` (the classic generators), ``"arrays"`` (the
#: direct-to-CSR samplers here), ``"auto"`` (arrays whenever the family
#: has an array-native sampler -- identical results either way).
GRAPH_SOURCES = ("auto", "networkx", "arrays")

#: Known graph-sampling stream formats, in version order (``graph_rng=``).
GRAPH_RNGS = ("legacy", "batched")

#: Graph-sampling stream name -> format version number.
GRAPH_RNG_VERSIONS = {"legacy": 1, "batched": 2}

#: The default sampling stream: v1, networkx's exact draw order.
DEFAULT_GRAPH_RNG = "legacy"


def validate_graph_rng(graph_rng: str) -> str:
    """Return ``graph_rng`` if it names a known sampling stream, else raise."""
    if graph_rng not in GRAPH_RNGS:
        raise ValueError(
            f"unknown graph_rng {graph_rng!r}; known: {GRAPH_RNGS}"
        )
    return graph_rng


def _from_pairs(n: int, pairs: List[tuple]) -> GraphArrays:
    """Edge-pair list -> :class:`GraphArrays` (the samplers' common exit)."""
    with phase("csr_build"):
        if not pairs:
            return GraphArrays.from_edges(
                n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
        u, v = zip(*pairs)
        return GraphArrays.from_edges(
            n,
            np.fromiter(u, dtype=np.int64, count=len(pairs)),
            np.fromiter(v, dtype=np.int64, count=len(pairs)),
        )


def gnp_arrays(n: int, p: float, seed: int = 0) -> GraphArrays:
    """Erdos--Renyi ``G(n, p)``, sampled directly into edge arrays.

    Edge-for-edge identical to :func:`repro.graphs.generators.gnp` for
    the same ``(n, p, seed)``: below the
    :data:`~repro.graphs.generators.GNP_FAST_THRESHOLD` (or for dense
    ``p``) it replays networkx's classic pair-loop sampler; above it, the
    O(n + m) geometric-skip sampler of ``fast_gnp_random_graph``
    (Batagelj--Brandes) -- both consuming ``random.Random(seed)`` draws in
    networkx's exact order.
    """
    if p >= 1.0:
        iu, iv = np.triu_indices(n, k=1)
        return GraphArrays.from_edges(n, iu.astype(np.int64), iv.astype(np.int64))
    if p <= 0.0:
        return _from_pairs(n, [])
    rng = random.Random(seed)
    pairs: List[tuple] = []
    if n > GNP_FAST_THRESHOLD and p < 0.25:
        # Geometric skips over the (v, w) pair enumeration, exactly as
        # networkx.fast_gnp_random_graph walks it.
        with phase("sample"):
            lp = math.log(1.0 - p)
            rand, log = rng.random, math.log
            v, w = 1, -1
            while v < n:
                lr = log(1.0 - rand())
                w = w + 1 + int(lr / lp)
                while w >= v and v < n:
                    w = w - v
                    v = v + 1
                if v < n:
                    pairs.append((v, w))
        return _from_pairs(n, pairs)
    with phase("sample"):
        rand = rng.random
        for u in range(n):  # networkx.gnp_random_graph's combinations order
            for v in range(u + 1, n):
                if rand() < p:
                    pairs.append((u, v))
    return _from_pairs(n, pairs)


#: Uniform draws per refill chunk of the v2 sampler.  Bounds the peak
#: *transient* memory of a sample plus its CSR build: however many edges
#: G(n, p) has, at most one chunk beyond the one being built is in
#: flight (the one a helper thread draws ahead of it), and the skips,
#: pairs and index temporaries beyond the buffer that becomes ``dst``
#: come to ~30 bytes per chunk pair, ~63 MB (tracemalloc, dense n =
#: 10^4), refilling until the pair space is exhausted.
#: Chunking changes nothing about the sampled graph -- draw ``j`` is a
#: pure function of ``(key, j)`` -- so the constant can move without
#: versioning.
GNP_V2_CHUNK = 1 << 21


def _skip_positions(
    key: np.uint64,
    counter: int,
    log1mp: float,
    pos: np.int64,
    out: np.ndarray,
) -> np.ndarray:
    """Flat positions ``pos + cumsum(g)`` of skips ``counter ..
    counter + len(out) - 1`` (the v2 format in :func:`gnp_arrays_v2`),
    written into the int64 ``out``.

    The chain runs block by block (:data:`~repro.graphs.csr.CACHE_BLOCK`
    draws), so its float temporaries stay in cache instead of streaming
    ten chunk-sized arrays through memory; then it cumsums in place.
    """
    size = len(out)
    for b in range(0, size, CACHE_BLOCK):
        e = min(b + CACHE_BLOCK, size)
        u = u64_to_unit_float(
            mix64_array(
                key + np.arange(counter + b, counter + e, dtype=np.uint64)
            )
        )
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= log1mp
        block = out[b:e]
        np.copyto(block, u, casting="unsafe")  # truncates, as astype does
        block += 1
    np.cumsum(out, out=out)
    out += pos
    return out


def _gnp_v2_pair_chunks(n: int, p: float, key: np.uint64, chunk: int):
    """Yield the v2 gnp edge stream as ``(lo, hi)`` array chunks.

    The chunks concatenate to the full edge list in strictly increasing
    ``(hi, lo)``-lex order (= ascending flat position).  Every draw is a
    pure function of ``(key, counter)``, so the stream does not depend on
    the chunk size.  Each chunk's flat positions are decoded to pairs by
    run length (:func:`_pair_rows`).

    The first chunk is drawn on the calling thread.  If the stream goes
    on, a helper thread (:func:`repro.graphs.csr.build_worker`) draws
    the positions of chunk k + 1 into a buffer allocated here while this
    thread decodes chunk k and the consumer takes it.  Each chunk starts
    where the previous one ended, so the chunks, and the graph, are the
    same on any number of threads.  Every chunk is a fresh array pair,
    which is what makes drawing ahead of the consumer safe.  Close the
    generator (:func:`contextlib.closing`) to stop the helper when a
    consumer stops early.
    """
    total = n * (n - 1) // 2
    log1mp = math.log1p(-p)

    def size_after(pos: int) -> int:
        # Aim one chunk at the expected remainder (with slack), bounded
        # by the chunk budget; the stream ends once a position lands
        # past the end.
        expect = float(total - int(pos)) * p
        return min(chunk, max(int(expect * 1.1) + 64, 1024))

    size = size_after(-1)
    positions = _skip_positions(
        key, 0, log1mp, np.int64(-1), np.empty(size, dtype=np.int64)
    )
    counter = size  # the next chunk's first draw
    with build_worker(positions[-1] < total) as worker:
        while True:
            following = None
            if positions[-1] < total:  # the stream goes on: start chunk k + 1
                pos = positions[-1]
                size = size_after(pos)
                # The buffer comes from this thread's heap (see build_worker).
                args = (key, counter, log1mp, pos, np.empty(size, dtype=np.int64))
                if worker is None:
                    following = partial(_skip_positions, *args)
                else:
                    following = worker.submit(_skip_positions, *args).result
                counter += size
            else:
                positions = positions[: np.searchsorted(positions, total)]
            if len(positions):
                pairs = _pair_rows(positions)
                positions = None  # decoded: hold only what the consumer holds
                yield pairs
                pairs = None  # the consumer is done with it
            if following is None:
                return
            positions = following()


def _pair_rows(positions: np.ndarray):
    """Decode strictly increasing flat positions to ``(lo, hi)`` arrays.

    Position ``x`` lies in row ``v`` (``hi``) when ``tri(v) <= x <
    tri(v + 1)`` with ``tri(v) = v(v-1)/2``.  Positions ascend, so rows
    never decrease: only the first and last rows are decoded, exactly
    (``math.isqrt``), and every row between gets its run length from one
    ``searchsorted`` of the row starts.  Cost is O(positions + rows
    spanned), which sums to O(n + m) over the whole stream.
    """
    v0, v1 = ((1 + math.isqrt(8 * int(x) + 1)) // 2 for x in positions[[0, -1]])
    rows = np.arange(v0, v1 + 1, dtype=np.int64)
    tri = rows * (rows - 1) >> 1
    # Row v's run ends where row v + 1 starts.  (Subtracting the bounds
    # directly skips np.diff's prepend/append concatenation, ~25 us a
    # call: a measurable share of a one-chunk n = 10^3 build.)
    bounds = np.empty(len(rows) + 1, dtype=np.int64)
    bounds[0], bounds[-1] = 0, len(positions)
    bounds[1:-1] = np.searchsorted(positions, tri[1:])
    counts = bounds[1:] - bounds[:-1]
    lo = np.repeat(tri, counts)
    np.subtract(positions, lo, out=lo)
    return lo, np.repeat(rows, counts)


def gnp_arrays_v2(n: int, p: float, seed: int = 0) -> GraphArrays:
    """Erdos--Renyi ``G(n, p)`` on the v2 (``"batched"``) sampling stream.

    Batagelj--Brandes geometric-skip sampling, vectorized: whole arrays of
    skips come from the counter-based splitmix64 stream instead of one
    ``random.Random`` call per edge.  Same distribution as
    :func:`gnp_arrays`, **different seeded graphs** -- the v1/v2 break is
    deliberate and versioned (see the module docstring).

    v2 sampling format (normative, pinned by tests)
    -----------------------------------------------
    * ``key = sha256(f"repro|graph-v2|{seed}")[:8]`` little-endian
      (:func:`repro.sim.rng.graph_stream_key`);
    * draw ``j`` (``j = 0, 1, ...``): ``u_j = mix64((key + j) mod 2^64)``
      mapped to [0, 1) by the standard ``(u >> 11) * 2^-53``;
    * skip ``j``: ``g_j = 1 + floor(log1p(-u_j) / log1p(-p))`` in IEEE
      float64 (the Batagelj--Brandes geometric jump);
    * the sampled edges sit at flat positions ``cumsum(g) - 1`` (exact
      int64 accounting -- positions never pass through floats) over the
      pair enumeration ``(v, w), 0 <= w < v < n`` flattened as
      ``v(v-1)/2 + w``, truncated at ``n(n-1)/2``.

    Skips are strictly positive, so positions are strictly increasing: the
    edge list needs no deduplication and arrives pre-sorted, which is what
    lets :meth:`GraphArrays.from_distinct_pair_chunks` build the CSR in
    one pass over the sampled chunks, holding at most two chunks of
    temporaries at a time (:data:`GNP_V2_CHUNK` draws each: the one being
    built and the one a helper thread works ahead on) instead of the
    whole pair list.
    """
    if p >= 1.0:
        return gnp_arrays(n, 1.0)
    if p <= 0.0 or n < 2:
        return _from_pairs(n, [])
    key = np.uint64(graph_stream_key(seed))
    # closing(): a build that raises stops the sampler's helper thread.
    with closing(_gnp_v2_pair_chunks(n, p, key, GNP_V2_CHUNK)) as chunks:
        return GraphArrays.from_distinct_pair_chunks(n, chunks)


def ring_arrays(n: int) -> GraphArrays:
    """The cycle (ring) ``C_n`` -- matches ``generators.cycle_graph``."""
    idx = np.arange(n, dtype=np.int64)
    # n = 1 yields the self-loop networkx's cycle_graph(1) carries and
    # from_edges drops it, matching normalize_graph; n = 2 collapses the
    # duplicate orientation to the single 0--1 edge.
    return GraphArrays.from_edges(n, idx, (idx + 1) % max(n, 1))


def path_arrays(n: int) -> GraphArrays:
    """The path ``P_n`` -- matches ``generators.path_graph``."""
    idx = np.arange(max(n - 1, 0), dtype=np.int64)
    return GraphArrays.from_edges(n, idx, idx + 1)


def star_arrays(n: int) -> GraphArrays:
    """A star with ``n`` nodes total -- matches ``generators.star_graph``."""
    if n < 1:
        raise ValueError(f"star needs at least one node, got {n}")
    leaves = np.arange(1, n, dtype=np.int64)
    return GraphArrays.from_edges(n, np.zeros(n - 1, dtype=np.int64), leaves)


def grid_arrays(rows: int, cols: int) -> GraphArrays:
    """A ``rows x cols`` 2-D grid -- matches ``generators.grid_graph``,
    including its deterministic string-sorted relabeling of the ``(i, j)``
    coordinate nodes (``sorted(nodes, key=str)``, *not* row-major order).
    """
    coords = [(i, j) for i in range(rows) for j in range(cols)]
    label = {c: k for k, c in enumerate(sorted(coords, key=str))}
    pairs = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                pairs.append((label[(i, j)], label[(i + 1, j)]))
            if j + 1 < cols:
                pairs.append((label[(i, j)], label[(i, j + 1)]))
    return _from_pairs(rows * cols, pairs)


def empty_arrays(n: int) -> GraphArrays:
    """``n`` isolated nodes."""
    return _from_pairs(n, [])


def complete_arrays(n: int) -> GraphArrays:
    """The clique ``K_n``."""
    return gnp_arrays(n, 1.0)


# ----------------------------------------------------------------------
# The single-knob family registry, mirroring generators.FAMILIES for the
# families with an array-native sampler.
# ----------------------------------------------------------------------


def _gnp_sparse(
    n: int, seed: int = 0, graph_rng: str = DEFAULT_GRAPH_RNG
) -> GraphArrays:
    """G(n, p) with expected degree ~8 -- generators' ``gnp-sparse``."""
    p = min(1.0, 8.0 / max(n - 1, 1))
    if validate_graph_rng(graph_rng) == "batched":
        return gnp_arrays_v2(n, p, seed=seed)
    return gnp_arrays(n, p, seed=seed)


def _gnp_dense(
    n: int, seed: int = 0, graph_rng: str = DEFAULT_GRAPH_RNG
) -> GraphArrays:
    """G(n, 1/2) -- generators' ``gnp-dense``."""
    if validate_graph_rng(graph_rng) == "batched":
        return gnp_arrays_v2(n, 0.5, seed=seed)
    return gnp_arrays(n, 0.5, seed=seed)


#: Family samplers, keyed by name; every constructor accepts
#: ``(n, seed=, graph_rng=)``.  The deterministic topologies carry no
#: randomness, so they ignore both knobs beyond validation -- the same
#: graph comes back under either sampling stream.
ARRAY_FAMILIES: Dict[str, Callable[..., GraphArrays]] = {
    "gnp-sparse": _gnp_sparse,
    "gnp-dense": _gnp_dense,
    "cycle": lambda n, seed=0, graph_rng="legacy": ring_arrays(n),
    "path": lambda n, seed=0, graph_rng="legacy": path_arrays(n),
    "star": lambda n, seed=0, graph_rng="legacy": star_arrays(n),
    "complete": lambda n, seed=0, graph_rng="legacy": complete_arrays(n),
    "empty": lambda n, seed=0, graph_rng="legacy": empty_arrays(n),
}

#: The families whose sampled edges depend on ``graph_rng`` at all (the
#: randomized ones); used by docs and tests -- everything else is
#: deterministic and stream-independent.
RANDOMIZED_ARRAY_FAMILIES = ("gnp-sparse", "gnp-dense")


def array_family_names() -> List[str]:
    """Sorted names of the families with an array-native sampler."""
    return sorted(ARRAY_FAMILIES)


def make_family_arrays(
    family: str,
    n: int,
    seed: int = 0,
    graph_rng: str = DEFAULT_GRAPH_RNG,
) -> GraphArrays:
    """Build a :class:`GraphArrays` from the named family, array-natively.

    Only families in :data:`ARRAY_FAMILIES` are accepted.  Under the
    default ``graph_rng="legacy"`` the edge set is identical to
    ``make_family_graph(family, n, seed)``; ``graph_rng="batched"``
    selects the v2 vectorized sampling stream (different seeded graphs
    for the randomized families, same distribution -- see the module
    docstring).
    """
    validate_graph_rng(graph_rng)
    if family not in ARRAY_FAMILIES:
        if family in FAMILIES:
            raise ValueError(
                f"graph family {family!r} has no array-native sampler; "
                f"array-native: {array_family_names()} "
                f"(use graph_source='networkx' for the rest)"
            )
        # Unknown everywhere: the shared registry error path, suggesting
        # close matches over every family either registry knows.
        raise unknown_name_error(
            "graph family", family, set(FAMILIES) | set(ARRAY_FAMILIES)
        )
    return ARRAY_FAMILIES[family](n, seed=seed, graph_rng=graph_rng)


def make_family(
    family: str,
    n: int,
    seed: int = 0,
    graph_source: str = "auto",
    graph_rng: str = DEFAULT_GRAPH_RNG,
) -> object:
    """One seeded family graph from the resolved source.

    The single dispatch point shared by ``sweep``, ``build_table1``, and
    the CLI: returns a :class:`GraphArrays` when the resolved source is
    ``"arrays"`` and a ``networkx.Graph`` otherwise -- same seeded edge
    set either way under ``graph_rng="legacy"``.  ``graph_rng="batched"``
    always resolves to the array-native samplers (the v2 stream has no
    networkx replay path).
    """
    from .generators import make_family_graph

    if resolve_graph_source(graph_source, family, graph_rng) == "arrays":
        return make_family_arrays(family, n, seed=seed, graph_rng=graph_rng)
    return make_family_graph(family, n, seed=seed)


def resolve_graph_source(
    graph_source: str, family: str, graph_rng: str = DEFAULT_GRAPH_RNG
) -> str:
    """Map a ``graph_source=`` request to the source that will be used.

    ``"auto"`` picks ``"arrays"`` exactly when the family has an
    array-native sampler (a pure performance choice under the default
    ``graph_rng="legacy"`` -- the edge sets are identical); requesting
    ``"arrays"`` for a family without one is an error rather than a
    silent fallback.  ``graph_rng="batched"`` (the v2 sampling stream)
    exists only array-natively, so it requires an array-native family and
    is incompatible with ``graph_source="networkx"`` -- both misuses fail
    with the fix spelled out rather than silently changing the sampled
    graphs.
    """
    if graph_source not in GRAPH_SOURCES:
        raise ValueError(
            f"unknown graph source {graph_source!r}; known: {GRAPH_SOURCES}"
        )
    validate_graph_rng(graph_rng)
    if family not in ARRAY_FAMILIES and family not in FAMILIES:
        # A typo, not a capability gap: the shared registry error path
        # (with close-match suggestions) beats a misleading
        # "no array-native sampler" story for a family that is not known
        # under any source.
        raise unknown_name_error(
            "graph family", family, set(FAMILIES) | set(ARRAY_FAMILIES)
        )
    if graph_rng == "batched":
        if family not in ARRAY_FAMILIES:
            raise ValueError(
                f"graph_rng='batched' (the v2 vectorized sampling stream) "
                f"needs an array-native sampler, and family {family!r} has "
                f"none (array-native: {array_family_names()}); use "
                f"graph_rng='legacy' for this family"
            )
        if graph_source == "networkx":
            raise ValueError(
                "graph_rng='batched' samples array-natively and cannot "
                "replay through the networkx generators; use "
                "graph_source='arrays' (or 'auto'), or keep "
                "graph_source='networkx' with graph_rng='legacy'"
            )
        return "arrays"
    if graph_source == "auto":
        return "arrays" if family in ARRAY_FAMILIES else "networkx"
    if graph_source == "arrays" and family not in ARRAY_FAMILIES:
        raise ValueError(
            f"graph family {family!r} has no array-native sampler "
            f"(array-native: {array_family_names()}); "
            f"use graph_source='networkx' or 'auto'"
        )
    return graph_source
