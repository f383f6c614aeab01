"""The CSR graph format every vectorized engine consumes.

:class:`GraphArrays` holds one graph as CSR rows: the neighbor column
``dst`` (node ``s``'s neighbors, ascending, fill the ``deg[s]`` entries
after the rows of ``0..s-1``) plus per-node degrees.  It has two
constructors:
``GraphArrays(graph)`` for any graph object or adjacency mapping (the
only path for arbitrary node labels), and the chunked pair build
:meth:`GraphArrays.from_distinct_pair_chunks` that every array-native
graph goes through -- the v2 gnp sampler streams into it directly, and
:meth:`GraphArrays.from_edges` dedupes raw endpoint arrays into one
sorted chunk for it.

This module sits below the engines: it imports nothing from
:mod:`repro.sim` beyond graph normalization and the bit-width helpers,
so :mod:`repro.graphs.arrays` and the analysis layer can build graphs
without reaching up into an engine module.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..profiling import phase, profiled_pulls
from ..sim.messages import payload_bits
from ..sim.network import NormalizedAdjacency, normalize_graph
from ..sim.rng import bit_length_u64


#: Elements per block when a graph build streams a chunk through a chain
#: of numpy passes: each pass's block-sized temporaries (256 KB of int64)
#: stay in cache, and a helper thread allocates nothing larger (see
#: :func:`build_worker`).  Any size from 2^13 to 2^17 does about as well.
CACHE_BLOCK = 1 << 15


def _row_groups(bstart: np.ndarray) -> List[Tuple[int, int, int, int]]:
    """Split the rows into groups of about :data:`CACHE_BLOCK` backward
    entries.

    Row ``h``'s backward entries (its neighbors below ``h``) are the
    pairs ``bstart[h]:bstart[h + 1]`` of the stream.  Each group ``(h0,
    h1, b0, b1)`` is the run of rows ``h0:h1``, whose backward entries
    are pairs ``b0:b1``, never none; a row with more than a block ends
    a group of its own.
    """
    m = int(bstart[-1])
    groups = []
    h0 = b0 = 0
    while b0 < m:
        # Keys of bstart's own dtype: any other casts all of bstart.
        fits = np.searchsorted(
            bstart, bstart.dtype.type(min(b0 + CACHE_BLOCK, m)), "right"
        )
        h1 = max(
            int(fits) - 1,
            int(np.searchsorted(bstart, bstart.dtype.type(b0), "right")),
        )
        b1 = int(bstart[h1])
        groups.append((h0, h1, b0, b1))
        h0, b0 = h1, b1
    return groups


def _backward_slots(
    group: Tuple[int, int, int, int], bstart: np.ndarray, cumF: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``dst`` slots of a row group's backward entries, in stream
    order, and each entry's row, counted from the group's first.

    Pair ``i`` of row ``h`` sits after the ``i`` backward entries before
    it and the ``cumF[h]`` forward entries of the rows above ``h``.
    """
    h0, h1, b0, b1 = group
    row = np.repeat(np.arange(h1 - h0), np.diff(bstart[h0 : h1 + 1]))
    slots = np.arange(b0, b1)
    slots += cumF[h0:h1][row]
    return slots, row


def _group_pairs(
    dst: np.ndarray,
    group: Tuple[int, int, int, int],
    bstart: np.ndarray,
    cumF: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """A row group's pairs once the backward entries are in place: each
    pair's ``lo``, read back from its backward slot, and its ``hi - h0``
    (no ``hi`` array is kept)."""
    slots, row = _backward_slots(group, bstart, cumF)
    return dst[slots], row


def _forward_runs(
    lo: np.ndarray, row: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The carry-independent half of placing a row group's forward
    entries: its pairs ``(lo, h0 + row)`` grouped into runs of equal
    ``lo``.

    Pair ``(lo, h)`` puts ``h`` into row ``lo``'s forward block.  One
    value sort groups the pairs: the packed int64 values ``(lo << B) |
    row``, with ``B = bit_length(max(row))`` (``n <= 2^31`` keeps them
    inside int64), order by ``lo`` and then by ``h``, which is the
    pairs' stream order, and unpack without a gather.  Returns ``(heads,
    starts, lens, rows)``: each run's ``lo``, its first place and length
    in sorted order, and the sorted ``row`` values.
    """
    c = len(lo)
    bits = int(row[-1]).bit_length()
    packed = lo.astype(np.int64)
    packed <<= bits
    packed |= row
    packed.sort()
    rows = (packed & ((1 << bits) - 1)).astype(np.int32)
    packed >>= bits  # the sorted lo
    head = np.empty(c, dtype=bool)
    head[0] = True
    np.not_equal(packed[1:], packed[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    lens = np.empty(len(starts), dtype=np.int32)  # no np.diff(append=)
    np.subtract(starts[1:], starts[:-1], out=lens[:-1])
    lens[-1] = c - starts[-1]
    return packed[starts], starts, lens, rows


def _place_front(
    dst: np.ndarray,
    group: Tuple[int, int, int, int],
    lo: np.ndarray,
    row: np.ndarray,
    carry: np.ndarray,
) -> None:
    """Write a row group's forward entries into ``dst``, counting from
    the front: ``carry[lo]`` is the first free slot of row ``lo``'s
    forward block, and advances past the group's entries.  The slots
    are written in ascending order."""
    heads, starts, lens, values = _forward_runs(lo, row)
    values += group[0]
    base = carry[heads] - starts
    carry[heads] += lens
    base = np.repeat(base, lens)
    base += np.arange(len(values))
    dst[base] = values


def _place_back(
    dst: np.ndarray,
    group: Tuple[int, int, int, int],
    lo: np.ndarray,
    row: np.ndarray,
    carry: np.ndarray,
) -> None:
    """:func:`_place_front` counting from the back: ``carry[lo]`` is the
    end of the slots row ``lo``'s forward block has left free, and
    retreats past the group's entries.  The helper thread places the
    last groups this way while the caller places the first."""
    heads, starts, lens, values = _forward_runs(lo, row)
    values += group[0]
    carry[heads] -= lens
    base = carry[heads] - starts
    base = np.repeat(base, lens)
    base += np.arange(len(values))
    dst[base] = values


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS keeps
    one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


@contextmanager
def build_worker(wanted: bool) -> Iterator[Any]:
    """One helper thread for the enclosed block of a graph build, or
    ``None``.

    The thread starts only when ``wanted`` (a second chunk exists) and a
    second CPU is usable, and it is joined when the block exits, however
    it exits: no thread outlives a build, so a forked pool worker never
    inherits one.  Work handed to it must not enter
    :func:`repro.profiling.phase` (the profiler is one single-threaded
    stack; the caller books its wait for a result), and it must write
    into buffers the caller allocated, making only
    :data:`CACHE_BLOCK`-sized temporaries of its own: memory a thread
    frees goes back to that thread's malloc arena, where the rest of the
    trial cannot reuse it.
    """
    if not wanted or _usable_cpus() < 2:
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    worker = ThreadPoolExecutor(1, thread_name_prefix="repro-graph-build")
    try:
        yield worker
    finally:
        worker.shutdown(wait=True)


def _endpoints(values: Any) -> np.ndarray:
    """``values`` as a 1-D int64 endpoint array, or a ``ValueError``.

    Only integer dtypes are node indices: a float or boolean array would
    be truncated into some other node without complaint, so it is
    rejected, as is any array that is not one-dimensional.  An empty
    input of any dtype (``[]`` is float64) is an empty edge list.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(
            f"edge endpoints must be 1-D arrays, got shape {arr.shape}: "
            f"pass one array of first endpoints and one of second endpoints"
        )
    if len(arr) and arr.dtype.kind not in "iu":
        raise ValueError(
            f"edge endpoints must be integer node indices, got dtype "
            f"{arr.dtype}: convert them with .astype(np.int64) once you "
            f"have checked they are whole numbers"
        )
    return arr.astype(np.int64, copy=False)


def _stream_chunk(
    n: int, lo: np.ndarray, hi: np.ndarray, last_key: int, deg_hi: np.ndarray
) -> int:
    """Validate one nonempty chunk of a ``(hi, lo)``-ordered distinct pair
    stream, and count its pairs per ``hi`` node into ``deg_hi``.

    ``lo`` and ``hi`` are the chunk's int64 endpoints.  Their keys ``hi *
    n + lo`` must rise strictly and continue above ``last_key`` (the
    previous chunk's last key); returns the chunk's own last key.  The
    checks run over :data:`CACHE_BLOCK` slices, each overlapping the one
    before by a pair, so their keys and masks stay block-sized.  The
    order is checked last, as a whole chunk would be: a chunk that breaks
    both ``lo < hi`` and the order reports ``lo < hi``.  ``hi`` ascends,
    so the same slices count it, never through a chunk-sized temporary:
    run by run where its runs average eight pairs or more (a dense
    chunk's), else by a ``bincount`` over the slice's ``hi`` span, which
    is the cheaper of the two when most runs are a few pairs (over one
    gnp-sparse n = 10^5 chunk, 2.4 ms against 2.8 ms run by run).
    """
    if lo.shape != hi.shape:  # slices would silently cut the longer one
        raise ValueError("edge endpoint arrays must have equal length")
    if lo.min() < 0 or hi.max() >= n:
        raise ValueError(f"edge endpoints must lie in [0, {n})")
    c = len(lo)
    ordered = int(hi[0]) * n + int(lo[0]) > last_key
    for b in range(0, c, CACHE_BLOCK):
        e = min(b + CACHE_BLOCK, c)
        s = max(b - 1, 0)
        if not (lo[s:e] < hi[s:e]).all():
            raise ValueError("pairs must satisfy lo < hi")
        if ordered:
            key = hi[s:e] * np.int64(n)
            key += lo[s:e]
            ordered = bool((key[1:] > key[:-1]).all())
        if ordered:  # hi ascends over the slice
            hi_b = hi[b:e]
            h0, h1 = hi_b[0], hi_b[-1]
            if (h1 - h0) * 8 < e - b:
                # Runs of equal hi, bounded by the slice's ends and the
                # places where hi changes.
                bounds = np.flatnonzero(hi_b[1:] != hi_b[:-1])
                bounds = np.concatenate(([0], bounds + 1, [e - b]))
                deg_hi[hi_b[bounds[:-1]]] += bounds[1:] - bounds[:-1]
            else:
                deg_hi[h0 : h1 + 1] += np.bincount(hi_b - h0)
    if not ordered:
        raise ValueError(
            "chunked pairs must arrive distinct and in strictly "
            "increasing (hi, lo)-lex order"
        )
    return int(hi[-1]) * n + int(lo[-1])


class GraphArrays:
    """The seed-independent array view of one graph.

    Building these (normalization, directed-edge arrays) is the engine's
    fixed cost per graph; the batch runner reuses one instance across
    every seed run on the same graph.

    ``GraphArrays(graph)`` converts an existing ``networkx.Graph`` or
    adjacency mapping (normalizing it first); it is the only constructor
    that accepts arbitrary node labels.  Every **array-native** graph
    (nodes ``0..n-1``, as :mod:`repro.graphs.arrays` samples them) is
    built by :meth:`from_distinct_pair_chunks`, either straight from a
    sorted pair stream or through :meth:`from_edges`, which dedupes raw
    endpoint arrays into one sorted chunk first.  Neither ever
    materializes a networkx object or a Python adjacency dict.  For
    array-native instances the ``adjacency`` dict is a *lazy* view: it is
    only built (and cached) if something dict-shaped asks for it (the
    generator engine, legacy ``RunResult.adjacency``, :meth:`to_networkx`).

    Memory audit (the CSR-shaped buffers that bound sweep scale): with
    ``m`` directed edges, the persistent footprint is ``dst`` at 4 bytes
    per edge (int32 -- node indices fit comfortably, and int32 halves the
    edge memory that dominates at n = 10^4..10^5) plus ``deg`` at 8 bytes
    per node (kept int64 because it feeds straight into the int64
    message/bit accumulators).  ``src`` is not stored: it is
    ``repeat(arange(n), deg)``, served on demand by :attr:`src`.  A
    gnp(10^5, 10/n) graph is m ~ 2x10^6 directed edges ~ 8 MB of edge
    array; per-run engine state is ~12 int64/int8 node arrays and
    nothing per edge (received messages are counted per node, and live
    sets follow from in-loop membership, so no reverse-edge index is
    kept).  Edge-sized transients live only for one recursion call or
    phase: each sub-call's CSR rows (the top call reads ``deg``/``dst``
    in place), and the phased engines' carried frontier.  Both read
    their rows in row blocks of ``repro.sim.phase_loop``'s
    ``EDGE_BLOCK`` entries, so the masks, keys and receiver ids they
    filter with are block-sized, never edge-sized.
    """

    __slots__ = (
        "_adjacency", "_node_ids", "n", "dst", "deg",
        "_id_bits", "_ids_are_range",
    )

    def __init__(self, graph: Any):
        self._adjacency = normalize_graph(graph)
        self._node_ids: Optional[List[Any]] = sorted(self._adjacency)
        self.n = len(self._node_ids)
        self._ids_are_range = False
        adjacency = self._adjacency
        index = {v: i for i, v in enumerate(self._node_ids)}
        # CSR rows in node order, each ascending: each undirected edge
        # appears once per direction.
        self.dst = np.fromiter(
            (index[u] for v in self._node_ids for u in adjacency[v]),
            dtype=np.int32,
        )
        self.deg = np.fromiter(
            (len(adjacency[v]) for v in self._node_ids),
            dtype=np.int64,
            count=self.n,
        )
        self._id_bits: Optional[np.ndarray] = None

    @classmethod
    def from_edges(cls, n: int, u: Any, v: Any) -> "GraphArrays":
        """Array-native constructor: ``n`` nodes ``0..n-1`` and undirected
        edges ``(u[i], v[i])`` given as 1-D integer arrays.

        Self-loops are dropped and duplicate edges (in either orientation)
        collapse, mirroring :func:`repro.sim.network.normalize_graph` --
        but no Python dict is ever built; the adjacency view stays lazy.
        One ``np.unique`` of the keys ``hi * n + lo`` dedupes the pairs
        and leaves them in ``(hi, lo)``-lex order, which makes them one
        chunk for :meth:`from_distinct_pair_chunks`.
        """
        u = _endpoints(u)
        v = _endpoints(v)
        if u.shape != v.shape:
            raise ValueError("edge endpoint arrays must have equal length")
        if len(u) and (
            u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n
        ):
            raise ValueError(f"edge endpoints must lie in [0, {n})")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keep = lo != hi  # drop self-loops
        lo, hi = lo[keep], hi[keep]
        if len(lo):
            key = np.unique(hi * np.int64(n) + lo)  # dedupe + sort
            lo, hi = key % n, key // n
        return cls.from_distinct_pair_chunks(n, [(lo, hi)])

    @property
    def node_ids(self) -> Any:
        """Node labels in sorted order (column order of every engine).

        Array-native graphs (``_ids_are_range``) never materialize the
        list: their labels are exactly ``0..n-1``, so this serves a
        ``range`` -- same iteration, indexing, and ``len`` behavior, zero
        allocation (a materialized list is ~400 MB at n = 10^7, pinned by
        ``tests/test_engine_memory.py``).  Graphs built from arbitrary
        labels keep the real sorted list.
        """
        if self._node_ids is None:
            return range(self.n)
        return self._node_ids

    @classmethod
    def from_distinct_pair_chunks(
        cls, n: int, chunks: Iterable[Tuple[Any, Any]]
    ) -> "GraphArrays":
        """Chunked CSR build: one pass over an iterable of pair chunks.

        ``chunks`` yields ``(lo, hi)`` array pairs whose concatenation is
        the edge list in strictly increasing ``(hi, lo)``-lex order (the
        v2 gnp sampler's native order) -- distinct pairs with ``lo < hi``,
        validated chunk by chunk.  The pass counts per-node degrees and
        appends each chunk's ``lo`` to one int32 buffer, grown in place:
        4 bytes per pair.  It copies a chunk before it pulls the next, so
        a producer may refill one buffer.  That buffer then grows to the
        ``2m`` slots of ``dst`` and is filled in place.  So the edge-array
        peak is 8 bytes per pair (``dst`` itself), and everything else in
        flight is O(n) node arrays plus index temporaries per chunk or
        per :data:`CACHE_BLOCK` row group, never per graph (see
        ``docs/performance.md``).  The degree counts are allocated at the
        first pair, so an edgeless build holds ``deg`` and nothing else.

        Slot math: the backward (``hi``-major) direction needs no sort --
        pair ``i``'s backward entry follows the ``i`` backward entries
        before it and every forward entry of the rows above its own, so
        its slot is ``i + cumF[hi]``, ``cumF`` the exclusive prefix sum
        of the forward counts.  That is never before ``i``, so the
        ``lo`` values move there in place, the last row group
        (:func:`_row_groups`) first.  The forward entries then fill the
        gaps by row group: each group reads its pairs' ``lo`` back from
        its backward slots, takes ``hi`` from its rows' run lengths, and
        ranks its pairs per ``lo`` with one value sort
        (:func:`_forward_runs`); a per-node carry holds the ranks of the
        groups placed before.  When there are two chunks or more and a
        second CPU, a helper thread (:func:`build_worker`) places the
        last half of the groups, counting back from each forward block's
        end (:func:`_place_back`), while this thread places the first
        half from each block's start (:func:`_place_front`); the slots,
        and so ``dst``, are the same either way.  Both write a group's
        slots in ascending order.  Besides ``dst``, pass 2 holds ``deg``
        (int64, summed into the backward count buffer) and three int32
        node arrays, four while the helper runs.
        """
        if callable(chunks):
            raise TypeError(
                "from_distinct_pair_chunks takes the chunk iterable itself, "
                "not a factory returning one: pass `make_chunks(...)`, not "
                "`lambda: make_chunks(...)`"
            )
        degF = degB = dst = None
        m = pulled = 0
        last_key = -1
        with phase("csr_build"):
            for lo, hi in profiled_pulls("sample", chunks):
                lo, hi = _endpoints(lo), _endpoints(hi)
                if len(lo):  # an empty chunk goes unchecked
                    if degF is None:
                        degF = np.zeros(n, dtype=np.int64)
                        degB = np.zeros(n, dtype=np.int64)
                    last_key = _stream_chunk(n, lo, hi, last_key, degB)
                    # No n-length bincount per chunk: lo spans every row.
                    np.add.at(degF, lo, 1)
                    if dst is None:
                        # A fresh chunk-sized array: a tiny one could be a
                        # block numpy cached from a helper thread, which
                        # would grow in that thread's malloc arena.
                        dst = lo.astype(np.int32)
                    else:
                        # dst is private and no view of it outlives a
                        # statement, so it may grow in place.
                        dst.resize(m + len(lo), refcheck=False)
                        dst[m:] = lo
                    m += len(lo)
                    pulled += 1
                del lo, hi  # drop this chunk before pulling the next
            self = cls.__new__(cls)
            self._adjacency = None
            self._node_ids = None  # ids are 0..n-1; node_ids serves a range
            self.n = n
            self._ids_are_range = True
            self._id_bits = None
            if not m:
                self.dst = np.empty(0, dtype=np.int32)
                self.deg = np.zeros(n, dtype=np.int64)
                return self
            # int32 node arrays: row h's backward pairs are bstart[h] to
            # bstart[h + 1] of the stream, and cumF[h] forward entries
            # fill the rows above it.
            bstart = np.empty(n + 1, dtype=np.int32)
            bstart[0] = 0
            bstart[1:] = np.cumsum(degB)
            cumF = np.cumsum(degF)
            cumF -= degF
            cumF = cumF.astype(np.int32)
            # deg takes over degB's buffer: no third int64 node array.
            deg = degB
            deg += degF
            del degF
            # Row h's forward block starts after its backward entries.
            startF = bstart[1:] + cumF
            dst.resize(2 * m, refcheck=False)
            groups = _row_groups(bstart)
            # Each backward entry moves from stream position i to slot
            # i + cumF[hi]: never before its source, so the groups move
            # from the last one down, each read out before it is written.
            for group in reversed(groups):
                slots, row = _backward_slots(group, bstart, cumF)
                lo = dst[group[2] : group[3]].copy()
                dst[slots] = lo
                del slots
            with build_worker(pulled > 1 and len(groups) > 1) as worker:
                front = groups
                if worker is not None:
                    # The helper places the last half from the back:
                    # row h's forward block ends where row h + 1 starts.
                    endF = np.empty(n, dtype=np.int32)
                    np.add(bstart[1:n], cumF[1:], out=endF[:-1])
                    endF[-1] = 2 * m
                    half = (len(groups) + 1) // 2
                    front, back = groups[:half], groups[half:]

                    def place_back() -> None:
                        for group in reversed(back):
                            pairs = _group_pairs(dst, group, bstart, cumF)
                            _place_back(dst, group, *pairs, endF)

                    back_done = worker.submit(place_back)
                for group in front:
                    if group[2]:  # group 0's pairs are in hand from the move
                        lo, row = _group_pairs(dst, group, bstart, cumF)
                    _place_front(dst, group, lo, row, startF)
                if worker is not None:
                    back_done.result()
        self.dst, self.deg = dst, deg
        return self

    @property
    def src(self) -> np.ndarray:
        """The source node of each directed edge, built on every access.

        Row ``s`` of the CSR holds ``deg[s]`` edges out of ``s``, so the
        column is ``np.repeat(arange(n), deg)`` and never stored: nothing
        on the engines' paths reads it (they walk rows by ``deg``), and
        not keeping it saves 4 bytes per directed edge in memory and on
        the wire.  Callers that need it more than once keep a local.
        """
        return np.repeat(np.arange(self.n, dtype=np.int32), self.deg)

    @property
    def adjacency(self) -> Dict[Any, Tuple[Any, ...]]:
        """The ``{node: sorted neighbor tuple}`` view, built lazily.

        Instances constructed from a graph object carry the normalized
        dict from day one; array-native instances reconstruct it from the
        CSR arrays on first access and cache it.
        """
        if self._adjacency is None:
            ids = self.node_ids
            dst = self.dst.tolist()
            bounds = np.concatenate(
                ([0], np.cumsum(self.deg))
            ).tolist()
            # dst is sorted within each src block, so tuples come out in
            # normalize_graph's sorted order.
            self._adjacency = NormalizedAdjacency(
                (v, tuple(ids[j] for j in dst[bounds[i]:bounds[i + 1]]))
                for i, v in enumerate(ids)
            )
        return self._adjacency

    def __getstate__(self) -> Dict[str, Any]:
        # Never pickle the adjacency dict: receivers rebuild the identical
        # view lazily from the CSR arrays if (and only if) they need it,
        # so the wire carries int32 edge arrays instead of a dict that can
        # dwarf them at n = 10^4..10^5 (the batch runner ships GraphArrays
        # to pool workers).
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_adjacency"
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot in self.__slots__:
            setattr(self, slot, state.get(slot))

    def to_networkx(self) -> Any:
        """Escape hatch: the same graph as a ``networkx.Graph``.

        Node labels are ``node_ids``; the edge set round-trips exactly
        (``GraphArrays(ga.to_networkx())`` rebuilds identical arrays).
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.node_ids)
        ids = self.node_ids
        src = self.src
        half = src < self.dst  # one orientation per undirected edge
        graph.add_edges_from(
            (ids[a], ids[b])
            for a, b in zip(src[half].tolist(), self.dst[half].tolist())
        )
        return graph

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return len(self.dst)

    @property
    def id_bits(self) -> np.ndarray:
        """Per-node ``payload_bits(node_id)``, computed once per graph.

        The phased baselines and the batched-RNG base case account message
        bits for ``(rank, id)`` payloads; hashing the id part out to an
        array once keeps that accounting vectorized.  Array-native graphs
        (whose ids are always ``0..n-1``) take a pure-numpy path --
        ``payload_bits(int) = max(bit_length, 1) + 2`` -- instead of a
        10^6-call Python loop.
        """
        if self._id_bits is None:
            if self._ids_are_range:
                idx = np.arange(self.n, dtype=np.uint64)
                self._id_bits = np.maximum(bit_length_u64(idx), 1) + 2
            else:
                self._id_bits = np.fromiter(
                    (payload_bits(v) for v in self.node_ids),
                    dtype=np.int64,
                    count=self.n,
                )
        return self._id_bits

    def nbytes(self) -> int:
        """Bytes held by the persistent edge/degree buffers."""
        return self.dst.nbytes + self.deg.nbytes

    @property
    def has_adjacency(self) -> bool:
        """Whether the :attr:`adjacency` dict view is materialized."""
        return self._adjacency is not None
