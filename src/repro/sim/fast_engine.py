"""Array-backed execution engine for the sleeping MIS algorithms.

The generator engine (:mod:`repro.sim.network`) steps one Python generator
per node and is fully general.  For the paper's two algorithms that
generality is unnecessary: the recursion schedule is *deterministic* --
every participant of a level-``k`` call wakes, exchanges, and sleeps at
rounds computed entirely by :mod:`repro.core.schedule` -- so an execution
can be replayed as a walk over the recursion tree with one numpy pass over
the participant set per communication step.  That is what this module does:

* the participant set of each call is an index array; adjacency is a pair
  of directed-edge arrays (CSR-flavoured), filtered down the tree so a
  sub-call only ever touches edges inside its own ``G[U]``;
* awake/``inMIS``/coin state are per-node int arrays, and so are the live
  counts of Algorithm 2's base case (live sets are never stored);
* the wall clock is never stepped at all -- round numbers are computed from
  the schedule formulas, which is the generator engine's fast-forward trick
  taken to its limit.  Algorithm 1's :math:`\\Theta(n^3)` wall-clock
  schedule therefore costs only the awake work.

Equivalence contract
--------------------
For identical ``(graph, seed)`` the engine reproduces the generator
engine's execution **exactly**: the same per-node random streams
(:func:`repro.sim.network.node_rng`, consumed in the same order), hence the
same decisions, MIS, round numbers, and per-node :class:`NodeStats` down to
message, bit, and tx/rx/idle counters.  ``tests/test_engine_equivalence.py``
enforces this over every corner-case graph, both algorithms, several seeds.

What it does *not* do: tracing, fault injection (``loss_rate``), CONGEST
bit-budget enforcement, and per-call :class:`CallRecord` instrumentation
(``RunResult.protocols`` is empty).  Workloads needing those stay on the
generator engine; ``engine="auto"`` in :func:`repro.api.solve_mis` makes
that fallback automatic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core import schedule
from ..graphs.csr import GraphArrays
from .errors import MaxRoundsExceededError
from .metrics import NodeStats, RunResult
from .rng import (
    DEFAULT_STREAM,
    bit_length_u64,
    draw_u64_array,
    node_rng,  # noqa: F401  (re-exported; historical import site)
    node_rng_bulk,
    randbelow,
    stream_key,
    u64_mod_bound,
    u64_to_unit_float,
    validate_stream,
)

#: Protocol keyword arguments the sleeping engine understands.
#: ``record_calls`` is accepted for signature compatibility but ignored: the
#: engine keeps no per-call instrumentation (use the generator engine for
#: recursion trees).
SUPPORTED_PROTOCOL_KWARGS = frozenset(
    {"depth", "coin_bias", "greedy_constant", "record_calls"}
)

#: Protocol keyword arguments of the phased baselines.
PHASED_PROTOCOL_KWARGS = frozenset({"max_phases"})


@dataclass(frozen=True)
class EngineCapability:
    """One row of the vectorized-engine capability registry.

    ``engine`` is the dotted class implementing the algorithm (relative to
    :mod:`repro.sim`), ``protocol_kwargs`` the protocol knobs that engine
    replays exactly, and ``note`` the short description shown in the
    ``docs/performance.md`` support matrix (which ``tests/test_docs.py``
    asserts stays in sync with this registry).
    """

    engine: str
    protocol_kwargs: frozenset
    note: str


#: Capability registry: THE single source of truth for which algorithms
#: have a vectorized engine.  Engine dispatch (:func:`unsupported_reason`,
#: :func:`repro.sim.batch.resolve_engine`), the error messages, and the
#: ``docs/performance.md`` support matrix are all derived from this table,
#: so adding an engine here is what makes ``engine="auto"`` pick it up --
#: and a stale "generator-only" story elsewhere is a test failure, not a
#: silent lie.
ENGINE_CAPABILITIES: Dict[str, EngineCapability] = {
    "sleeping": EngineCapability(
        "fast_engine.VectorizedEngine",
        SUPPORTED_PROTOCOL_KWARGS,
        "recursion-schedule replay; the Θ(n³) wall clock is computed, "
        "never stepped",
    ),
    "fast-sleeping": EngineCapability(
        "fast_engine.VectorizedEngine",
        SUPPORTED_PROTOCOL_KWARGS,
        "greedy base cases over in-loop neighborhoods",
    ),
    "luby": EngineCapability(
        "fast_phased.PhasedVectorizedEngine",
        PHASED_PROTOCOL_KWARGS,
        "phase-lockstep replay, fresh ranks each phase",
    ),
    "greedy": EngineCapability(
        "fast_phased.PhasedVectorizedEngine",
        PHASED_PROTOCOL_KWARGS,
        "phase-lockstep replay, one permanent rank",
    ),
    "ghaffari": EngineCapability(
        "fast_phased.PhasedVectorizedEngine",
        PHASED_PROTOCOL_KWARGS,
        "marking coins vs 2^-exponent, exact integer desire-level updates",
    ),
    "abi": EngineCapability(
        "fast_phased.PhasedVectorizedEngine",
        PHASED_PROTOCOL_KWARGS,
        "degree-weighted marking, conflicts resolved toward (degree, id)",
    ),
}

#: The recursion-schedule algorithms run by :class:`VectorizedEngine`.
SLEEPING_ALGORITHMS = tuple(
    a for a, cap in ENGINE_CAPABILITIES.items()
    if cap.engine == "fast_engine.VectorizedEngine"
)

#: The round-synchronous phase baselines run by
#: :class:`repro.sim.fast_phased.PhasedVectorizedEngine`.
PHASED_ALGORITHMS = tuple(
    a for a, cap in ENGINE_CAPABILITIES.items()
    if cap.engine == "fast_phased.PhasedVectorizedEngine"
)

#: Everything some vectorized engine implements.
SUPPORTED_ALGORITHMS = tuple(ENGINE_CAPABILITIES)

#: Bit cost of the tri-state announcements (``None``/``True``/``False`` all
#: encode to 2 bits under :func:`repro.sim.messages.payload_bits`).
_FLAG_BITS = 2


def assemble_result(
    *,
    n: int,
    rounds: int,
    seed: Optional[int],
    adjacency: Dict[Any, Tuple[Any, ...]],
    node_ids: List[Any],
    awake: List[int],
    sleep: Any,
    tx: List[int],
    rx: List[int],
    idle: List[int],
    msent: List[int],
    bits: List[int],
    mrecv: List[int],
    decision_round: List[int],
    awake_at_decision: List[int],
    finish: Any,
    in_mis: List[int],
) -> RunResult:
    """Build the :class:`RunResult` from per-node stat columns.

    Shared by both vectorized engines.  Columns are plain-int lists
    (callers use ``.tolist()`` -- one C pass) except ``sleep`` and
    ``finish``, which may be any per-node iterable, e.g.
    ``itertools.repeat`` for a constant.  Building the (plain, non-slots)
    dataclasses through ``__dict__`` skips 13-kwarg ``__init__`` calls --
    together with ``.tolist()`` this is the difference between the result
    build being noise and being ~30% of a small-graph run.  A ``-1``
    decision round means undecided (``None`` in :class:`NodeStats`);
    ``in_mis`` uses the engines' tri-state ``-1``/``0``/``1`` encoding.
    """
    node_stats: Dict[Any, NodeStats] = {}
    outputs: Dict[Any, Optional[bool]] = {}
    cols = zip(
        node_ids, awake, sleep, tx, rx, idle, msent, bits, mrecv,
        decision_round, awake_at_decision, finish, in_mis,
    )
    for v, aw, slp, txr, rxr, idl, ms, bt, mr, dr, ad, fin, mis in cols:
        stats = NodeStats.__new__(NodeStats)
        stats.__dict__.update(
            node_id=v,
            awake_rounds=aw,
            sleep_rounds=slp,
            tx_rounds=txr,
            rx_rounds=rxr,
            idle_rounds=idl,
            messages_sent=ms,
            bits_sent=bt,
            messages_received=mr,
            decision_round=dr if dr >= 0 else None,
            awake_at_decision=ad if dr >= 0 else None,
            finish_round=fin,
            awake_at_finish=aw,
        )
        node_stats[v] = stats
        outputs[v] = None if mis == -1 else bool(mis)
    return RunResult(
        n=n,
        rounds=rounds,
        seed=seed,
        node_stats=node_stats,
        outputs=outputs,
        protocols={},
        adjacency=adjacency,
    )


def draw_dense_ranks(
    rngs: Optional[List[Any]],
    key: Optional[int],
    ctr: Optional[np.ndarray],
    U: np.ndarray,
    bound: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One rank draw from ``[0, bound)`` per node of ``U``, on either stream.

    Returns ``(dense, raw_bits)`` aligned with ``U``: ``dense`` are dense
    ranks (value order preserved, so comparisons stay in int64 even when
    raw draws exceed 2**63), ``raw_bits`` is ``max(bit_length, 1)`` of
    each raw value.  The full CONGEST cost of a ``(value, id)`` rank
    payload is ``raw_bits + payload_bits(id) + 10`` (int tag+sign = 2,
    tuple framing = 4 per element).

    v1 (``rngs`` given): one ``randrange`` per node, in ``U`` order --
    the generator engine's stream positions.  v2 (``key``/``ctr`` given):
    whole-array draws at each node's counter, which is then advanced.
    """
    if rngs is not None:
        values = [randbelow(rngs[i], bound) for i in U.tolist()]
        order = {v: j for j, v in enumerate(sorted(set(values)))}
        dense = np.fromiter(
            (order[v] for v in values), dtype=np.int64, count=len(values)
        )
        raw_bits = np.fromiter(
            (max(v.bit_length(), 1) for v in values),
            dtype=np.int64,
            count=len(values),
        )
        return dense, raw_bits
    u64 = draw_u64_array(key, U, ctr[U])
    ctr[U] += 1
    vals = u64_mod_bound(u64, bound)
    _, inverse = np.unique(vals, return_inverse=True)
    return inverse.astype(np.int64), np.maximum(bit_length_u64(vals), 1)


def unsupported_reason(
    algorithm: str,
    *,
    trace: Any = None,
    congest_bit_limit: Optional[int] = None,
    loss_rate: float = 0.0,
    **protocol_kwargs: Any,
) -> Optional[str]:
    """Why this configuration is generator-only, or ``None`` if vectorizable.

    The returned string names the *reason* the vectorized engines cannot
    run the configuration -- either the algorithm has no entry in
    :data:`ENGINE_CAPABILITIES` (the capability registry every MIS
    algorithm currently has a row in) or a generator-only instrumentation
    feature was requested.  ``engine="auto"`` falls back silently; a hard
    ``engine="vectorized"`` request surfaces this reason in its error
    (see :func:`repro.sim.batch.resolve_engine`).  The support matrix in
    ``docs/performance.md`` renders the same registry and is kept in sync
    by ``tests/test_docs.py``.
    """
    capability = ENGINE_CAPABILITIES.get(algorithm)
    if capability is None:
        return (
            f"algorithm {algorithm!r} has no vectorized implementation "
            f"(vectorized: {', '.join(ENGINE_CAPABILITIES)}) and always "
            f"runs on the generator engine, whatever the graph size"
        )
    if trace is not None and getattr(trace, "enabled", False):
        return "tracing (trace=) is generator-engine-only instrumentation"
    if congest_bit_limit is not None:
        return (
            "CONGEST bit-budget enforcement (congest_bit_limit=) is "
            "generator-engine-only"
        )
    if loss_rate:
        return "fault injection (loss_rate=) is generator-engine-only"
    extra = set(protocol_kwargs) - capability.protocol_kwargs
    if extra:
        return (
            f"protocol kwargs {sorted(extra)} have no vectorized path for "
            f"{algorithm!r} (vectorized kwargs: "
            f"{sorted(capability.protocol_kwargs)})"
        )
    return None


def supports(algorithm: str, **constraints: Any) -> bool:
    """Whether a vectorized engine can run this configuration exactly."""
    return unsupported_reason(algorithm, **constraints) is None


class EngineScratch:
    """A pool of reusable numpy buffers for running many trials.

    Engines allocate a dozen node-sized state arrays per run; over a
    10^4-trial sweep that allocation/zeroing churn is measurable.  A scratch passed to consecutive engine constructions hands
    the same buffers back (re-filled) whenever name, shape, and dtype
    match.  Not thread-safe, and an engine borrowing from a scratch must
    finish its run before the next engine reuses the pool -- exactly the
    batch runner's sequential per-graph loop.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(
        self,
        name: str,
        shape: Union[int, Tuple[int, ...]],
        dtype: Any,
        fill: Any = None,
    ) -> np.ndarray:
        """A buffer of this name/shape/dtype, re-filled if ``fill`` given."""
        if isinstance(shape, int):
            shape = (shape,)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
        if fill is not None:
            buf.fill(fill)
        return buf


class VectorizedEngine:
    """Vectorized replay of Algorithm 1 / Algorithm 2 over one graph.

    Parameters mirror :class:`repro.sim.network.Simulator` plus the
    protocol knobs of the two sleeping algorithms.  ``graph`` may be a
    prebuilt :class:`GraphArrays` to amortize graph preparation across
    many seeds.
    """

    def __init__(
        self,
        graph: Any,
        algorithm: str = "fast-sleeping",
        *,
        seed: Optional[int] = 0,
        depth: Optional[int] = None,
        coin_bias: float = 0.5,
        greedy_constant: int = schedule.DEFAULT_GREEDY_CONSTANT,
        record_calls: bool = True,  # accepted, ignored (no CallRecords)
        max_rounds: Optional[int] = None,
        rng: str = DEFAULT_STREAM,
        scratch: Optional[EngineScratch] = None,
        result: str = "legacy",
        dtype: str = "default",
    ):
        from .array_result import resolve_dtype_kind, resolve_result_kind

        if algorithm not in SLEEPING_ALGORITHMS:
            raise ValueError(
                f"vectorized sleeping engine supports {SLEEPING_ALGORITHMS}, "
                f"got {algorithm!r}"
            )
        if not 0.0 < coin_bias < 1.0:
            raise ValueError(f"coin bias must be in (0, 1), got {coin_bias}")
        validate_stream(rng)
        self.algorithm = algorithm
        self.seed = seed
        self.coin_bias = coin_bias
        self.max_rounds = max_rounds
        self.rng_stream = rng
        self.result_kind = resolve_result_kind(result, "vectorized")
        self.dtype_kind = resolve_dtype_kind(dtype)

        arrays = graph if isinstance(graph, GraphArrays) else GraphArrays(graph)
        self.arrays = arrays
        self.node_ids = arrays.node_ids
        self.n = arrays.n
        self.src = arrays.src
        self.dst = arrays.dst
        self.deg = arrays.deg
        self._no_isolated = bool(self.deg.all()) if self.n else True

        n = self.n
        if algorithm == "sleeping":
            self.base_rounds = 0
            self.depth = (
                depth if depth is not None
                else (schedule.recursion_depth(n) if n else 0)
            )
            self._duration = schedule.call_duration
        else:
            self.base_rounds = (
                schedule.greedy_rounds(n, greedy_constant) if n else 0
            )
            self.depth = (
                depth if depth is not None
                else (schedule.truncated_depth(n) if n else 0)
            )
            self._duration = lambda k: schedule.fast_call_duration(
                k, self.base_rounds
            )

        # Per-node randomness, consumed in the generator engine's order:
        # ``depth`` coin flips up front, then one rank draw per
        # greedy-base-case entry (Algorithm 2 only).  Under the v1 stream
        # that means one random.Random per node, and all coins really are
        # drawn eagerly (later rank draws sit after them in each node's
        # stream).  Under the v2 batched stream a coin is a pure function
        # of ``(key, node, level)``, so no matrix is materialized at all:
        # ``_coin_heads`` draws each call's coins on demand -- identical
        # values, without the n x depth draw (~0.5 GB and several seconds
        # of construction at n = 10^6, where depth = 60).
        depth = self.depth
        scratch = scratch if scratch is not None else EngineScratch()
        self._scratch = scratch
        if rng == "pernode":
            self._rngs: Optional[List[Any]] = node_rng_bulk(
                seed, self.node_ids
            )
            self._key = None
            self._ctr = None
            if n and depth:
                # One flat C pass (row-major: node i's coins are
                # consecutive, matching each stream's draw order) instead
                # of n Python lists plus an np.array conversion.
                self.coins: Optional[np.ndarray] = np.fromiter(
                    (
                        r.random() < coin_bias
                        for r in self._rngs
                        for _ in range(depth)
                    ),
                    dtype=np.int8,
                    count=n * depth,
                ).reshape(n, depth)
            else:
                self.coins = np.zeros((n, 1), dtype=np.int8)
        else:
            self._rngs = None
            self._key = stream_key(seed)
            self._ctr = scratch.take("rng_ctr", n, np.int64, fill=depth)
            self.coins = None  # drawn lazily per call by _coin_heads
        self._rank_bound = n**6 + 1

        # Per-node state and statistics (the NodeStats fields, as arrays),
        # borrowed from the scratch pool so batch runs recycle them.
        self.in_mis = scratch.take("in_mis", n, np.int8, fill=-1)
        self.awake = scratch.take("awake", n, np.int64, fill=0)
        # Round *labels* grow like T(K) = 3(2^K - 1), which leaves int64
        # range once K = ceil(3 log2 n) passes 62 (n beyond ~1.3x10^6):
        # there the round-valued columns (sleep spans, decision rounds)
        # switch to float64 -- approximate at the far tail of the clock,
        # while every *count* column (awake, tx, messages, bits) stays
        # exact int64.  The node-averaged awake complexity -- the paper's
        # claim -- is therefore exact at every n; only the astronomically
        # large round labels round.  Below that depth nothing changes:
        # int64 exactness is what the cross-engine equivalence suite pins.
        round_dtype: Any = (
            np.int64
            if self._duration(self.depth) <= np.iinfo(np.int64).max
            else np.float64
        )
        self.sleep = scratch.take("sleep", n, round_dtype, fill=0)
        self.tx = scratch.take("tx", n, np.int64, fill=0)
        self.rx = scratch.take("rx", n, np.int64, fill=0)
        self.idle = scratch.take("idle", n, np.int64, fill=0)
        self.msent = scratch.take("msent", n, np.int64, fill=0)
        self.bits = scratch.take("bits", n, np.int64, fill=0)
        self.mrecv = scratch.take("mrecv", n, np.int64, fill=0)
        self.decision_round = scratch.take(
            "decision_round", n, round_dtype, fill=-1
        )
        self.awake_at_decision = scratch.take(
            "awake_at_decision", n, np.int64, fill=-1
        )
        self.base_truncated = scratch.take("base_truncated", n, bool, fill=False)
        # Set-use-clear masks shared by every call of the recursion (saves
        # two O(n) zero-fills per call; see _subedges and Parts 4/5).
        self._sub_mask = scratch.take("sub_mask", n, bool, fill=False)
        self._nbr_mask = scratch.take("nbr_mask", n, bool, fill=False)
        # Global-to-local node index map for the greedy base cases
        # (set-before-use only: each base call writes its own participants
        # before reading, so stale entries are never observed).
        self._local_index = scratch.take("local_index", n, np.int32)

    # ------------------------------------------------------------------

    @property
    def adjacency(self) -> Dict[Any, Tuple[Any, ...]]:
        """The adjacency dict view (lazy for array-native graphs)."""
        return self.arrays.adjacency

    def run(self) -> RunResult:
        """Replay the full execution and return the generator-equal result.

        The recursion is attributed to the ``engine`` profiling phase and
        the result assembly to ``result_build`` (self-time: the nested
        build span pauses the engine span) -- see :mod:`repro.profiling`.
        """
        from ..profiling import phase

        with phase("engine"):
            if self.n == 0:
                return self._build_result(0)
            total_rounds = self._duration(self.depth)
            if self.max_rounds is not None and total_rounds > self.max_rounds:
                raise MaxRoundsExceededError(self.max_rounds, self.n)

            everyone = np.arange(self.n, dtype=np.int64)
            # int32 like every other edge index: the CSR format already
            # requires 2m < 2^31.
            all_edges = np.arange(len(self.src), dtype=np.int32)
            self._recurse(everyone, all_edges, self.depth, 0)
            return self._build_result(total_rounds)

    # ------------------------------------------------------------------
    # The recursion (SleepingMISRecursive, Parts 2-6).
    # ------------------------------------------------------------------

    def _recurse(self, U: np.ndarray, E: np.ndarray, k: int, r: int) -> None:
        """One call over participant indices ``U`` starting at round ``r``.

        ``E`` holds the indices of the directed edges with *both* endpoints
        in ``U`` -- exactly the message deliveries of this call's rounds.
        Both stay ascending down the tree (sub-calls filter by mask).
        """
        if k == 0:
            if self.algorithm == "sleeping":
                self._decide(U, True, r)
            else:
                self._greedy_base(U, E, r)
            return

        if len(U) == 1:
            self._singleton_call(int(U[0]), k, r)
            return

        d_sub = self._duration(k - 1)
        # In-call endpoints and degrees.  ``G[U]`` is symmetric, so a
        # node's in-call out-degree is also the number of messages it
        # receives per broadcast; Parts 2, 4 and 5 each broadcast over
        # the same ``E``, so all three receipts are counted here.
        if len(E) == len(self.src):
            # Every edge is in the call (the top call, or one that leaves
            # out only isolated nodes): read the CSR in place; in-call
            # degrees are graph degrees.
            se, de, deg_in = self.src, self.dst, self.deg[U]
        else:
            se, de = self.src[E], self.dst[E]
            # ``E`` is ascending, so ``se`` is sorted and a node's
            # out-edges are one run of it.  Every sender is in ``U``
            # (also ascending), so U[i]'s run starts where U[i-1]'s ends.
            ends = np.searchsorted(se, U.astype(se.dtype), side="right")
            deg_in = ends.copy()
            deg_in[1:] -= ends[:-1]
        self.mrecv[U] += 3 * deg_in

        # Part 2 -- first isolated node detection: a node is isolated in
        # G[U] exactly when it has no in-call edge.
        self._broadcast(U)
        iso = U[deg_in == 0]
        if len(iso):
            self._decide(iso, True, r + 1)

        # Part 3 -- left recursion; everyone else sleeps through it.
        left = (self.in_mis[U] == -1) & self._coin_heads(U, k)
        L = U[left]
        if d_sub > 0:
            self.sleep[U[~left]] += d_sub
        if len(L):
            self._recurse(L, self._subedges(L, E, se, de), k - 1, r + 1)

        # Part 4 -- synchronization and elimination.  The neighbor-flag
        # masks borrow one shared buffer (set, read, clear by the same
        # indices) instead of zeroing a fresh O(n) array per call.
        r1 = r + 1 + d_sub
        self._broadcast(U)
        has_mis_nbr = self._nbr_mask
        mis_heads = de[self.in_mis[se] == 1]
        has_mis_nbr[mis_heads] = True
        elim = U[(self.in_mis[U] == -1) & has_mis_nbr[U]]
        has_mis_nbr[mis_heads] = False
        if len(elim):
            self._decide(elim, False, r1 + 1)

        # Part 5 -- second isolated node detection.
        r2 = r1 + 1
        self._broadcast(U)
        has_undecided_or_mis_nbr = self._nbr_mask
        loud_heads = de[self.in_mis[se] != 0]
        has_undecided_or_mis_nbr[loud_heads] = True
        join = U[(self.in_mis[U] == -1) & ~has_undecided_or_mis_nbr[U]]
        has_undecided_or_mis_nbr[loud_heads] = False
        if len(join):
            self._decide(join, True, r2 + 1)

        # Part 6 -- right recursion; everyone else sleeps through it.
        right = self.in_mis[U] == -1
        R = U[right]
        if d_sub > 0:
            self.sleep[U[~right]] += d_sub
        if len(R):
            self._recurse(R, self._subedges(R, E, se, de), k - 1, r2 + 1)

    def _singleton_call(self, u: int, k: int, r: int) -> None:
        """Closed form for a call whose participant set is one node.

        With nobody else awake the node hears nothing in Part 2, decides
        ``isolated`` immediately, then (already decided) sleeps through
        both sub-calls and broadcasts its announcements alone in Parts 4
        and 5 -- three awake rounds total, no recursion.  Near the leaves
        most calls are singletons, so bypassing the array machinery here
        is a real constant-factor win.
        """
        assert self.in_mis[u] == -1
        deg = int(self.deg[u])
        self.awake[u] += 3
        if deg > 0:
            self.tx[u] += 3
            self.msent[u] += 3 * deg
            self.bits[u] += 3 * _FLAG_BITS * deg
        else:
            self.idle[u] += 3
        d_sub = self._duration(k - 1)
        if d_sub > 0:
            self.sleep[u] += 2 * d_sub
        self.in_mis[u] = 1
        self.decision_round[u] = r + 1
        self.awake_at_decision[u] = self.awake[u] - 2  # after Part 2 only

    def _coin_heads(self, U: np.ndarray, k: int) -> np.ndarray:
        """The level-``k`` coins of participants ``U`` (True = recurse left).

        v1 reads the eagerly drawn per-node coin matrix; v2 computes the
        same pure function of ``(key, node, level)`` on demand -- only the
        nodes that actually reach a level-``k`` call ever cost a draw.
        """
        if self.coins is not None:
            return self.coins[U, k - 1] == 1
        u = draw_u64_array(self._key, U, np.int64(k - 1))
        return u64_to_unit_float(u) < self.coin_bias

    def _subedges(
        self, S: np.ndarray, E: np.ndarray, se: np.ndarray, de: np.ndarray
    ) -> np.ndarray:
        """Edges of ``E`` (endpoints ``se``/``de``) inside sub-set ``S``."""
        inS = self._sub_mask
        inS[S] = True
        both = inS[se]
        both &= inS[de]  # in place: one |E|-sized temporary, not two
        sub = E[both]
        inS[S] = False
        return sub

    def _broadcast(self, U: np.ndarray) -> None:
        """One awake round in which every node of ``U`` sends a 2-bit flag
        to *all* its graph neighbors (presence or ``inMIS`` announcement).

        Sender-side accounting only, O(|U|): deliveries happen between
        awake nodes, i.e. over the call's in-call edges, so the callers
        credit ``mrecv`` from the in-call degrees they already hold.
        Classification matches the generator engine: senders with at
        least one port are tx rounds; port-less nodes are awake-and-silent,
        hence idle.
        """
        deg = self.deg[U]
        self.awake[U] += 1
        if self._no_isolated:
            self.tx[U] += 1
        else:
            self.tx[U[deg > 0]] += 1
            self.idle[U[deg == 0]] += 1
        self.msent[U] += deg
        self.bits[U] += _FLAG_BITS * deg

    def _decide(self, nodes: np.ndarray, value: bool, clock: int) -> None:
        """Fix ``inMIS`` for ``nodes`` at wall-clock ``clock``, exactly once."""
        assert (self.in_mis[nodes] == -1).all(), "re-deciding a node"
        self.in_mis[nodes] = 1 if value else 0
        self.decision_round[nodes] = clock
        self.awake_at_decision[nodes] = self.awake[nodes]

    # ------------------------------------------------------------------
    # Algorithm 2's greedy base case, in a fixed window of W rounds.
    # ------------------------------------------------------------------

    def _greedy_base(self, U: np.ndarray, E: np.ndarray, r: int) -> None:
        """The base case, computed in the call's **local index space**.

        Every per-node array here has length ``|U|`` (slot ``i`` is global
        node ``U[i]``), edge endpoints are mapped through the shared
        ``_local_index`` scatter buffer, and received-message counts
        accumulate locally until one ``mrecv[U] +=`` at exit.  Deep in the
        recursion most base calls are tiny, so the historical full-``n``
        masks and ``bincount(minlength=n)`` passes made every phase cost
        the graph's size; compaction makes them cost the call's size.
        Global state (``in_mis``, stats) is updated through ``U[...]``
        fancy indexing -- same values, same order, bit-for-bit the
        generator engine's execution.  By the live-set invariant of
        :mod:`repro.sim.fast_phased`, a round's deliveries are the in-call
        edges between in-loop nodes and ``live_cnt`` is the in-loop degree.
        """
        W = self.base_rounds

        if len(U) == 1:
            # Lone participant: discovery hears nothing, the rank is still
            # drawn (stream alignment!), and the loop head immediately
            # decides isolated-among-survivors.
            u = int(U[0])
            deg = int(self.deg[u])
            self.awake[u] += 1
            if deg > 0:
                self.tx[u] += 1
                self.msent[u] += deg
                self.bits[u] += _FLAG_BITS * deg
            else:
                self.idle[u] += 1
            if self._rngs is not None:
                randbelow(self._rngs[u], self._rank_bound)
            else:
                self._ctr[u] += 1
            assert self.in_mis[u] == -1
            self.in_mis[u] = 1
            self.decision_round[u] = r + 1
            self.awake_at_decision[u] = self.awake[u]
            if W > 1:
                self.sleep[u] += W - 1
            return

        nu = len(U)
        es_g, ed_g = self.src[E], self.dst[E]
        local = self._local_index
        local[U] = np.arange(nu, dtype=np.int32)
        es, ed = local[es_g], local[ed_g]

        # Neighbor discovery inside G[U]: live sets start as the in-call
        # neighborhoods.  Each node hears one presence flag per in-call
        # neighbor, which seeds the local receipt count.
        self._broadcast(U)
        live_cnt = np.bincount(ed, minlength=nu)
        mrecv = live_cnt.copy()

        # Ranks: one draw per participant, same stream position as the
        # generator engine (see draw_dense_ranks for the stream and
        # payload-bit contract).  ``gid`` carries the global indices for
        # the (rank, id) tie-break.
        rank, raw_bits = draw_dense_ranks(
            self._rngs, self._key, self._ctr, U, self._rank_bound
        )
        rank_bits = raw_bits + self.arrays.id_bits[U] + 10
        gid = U

        inloop = np.ones(nu, dtype=bool)
        undecided = np.ones(nu, dtype=bool)  # local mirror of in_mis == -1

        p = 0
        while True:
            used = 1 + 3 * p

            # Loop head: isolated-among-survivors nodes join; then decided
            # nodes and everyone out of window leave the loop.
            iso = inloop & undecided & (live_cnt == 0)
            if iso.any():
                self._decide(U[iso], True, r + used)
                undecided &= ~iso
            leaving = inloop & (~undecided | (used + 3 > W))
            if leaving.any():
                truncated = leaving & undecided
                if truncated.any():
                    self.base_truncated[U[truncated]] = True
                if W - used > 0:
                    self.sleep[U[leaving]] += W - used
                inloop &= ~leaving
            if not inloop.any():
                self.mrecv[U] += mrecv
                return

            # Round A -- rank exchange over the (symmetric) live sets: each
            # in-loop node hears, and keeps, as many ranks as it sends.
            rA = r + used
            act = U[inloop]
            self.awake[act] += 1
            self.tx[act] += 1  # every in-loop node has a nonempty live set
            self.msent[act] += live_cnt[inloop]
            self.bits[act] += rank_bits[inloop] * live_cnt[inloop]
            mrecv += live_cnt * inloop
            delivered = inloop[es] & inloop[ed]
            best_rank = np.full(nu, -1, dtype=np.int64)
            np.maximum.at(best_rank, ed[delivered], rank[es[delivered]])
            top = delivered & (rank[es] == best_rank[ed])
            best_id = np.full(nu, -1, dtype=np.int64)
            np.maximum.at(best_id, ed[top], es_g[top])
            joined = inloop & (
                (rank > best_rank) | ((rank == best_rank) & (gid > best_id))
            )
            jact = U[joined]
            if len(jact):
                self._decide(jact, True, rA + 1)
                undecided &= ~joined

            # Round B -- JOIN announcements; live neighbors are eliminated.
            rB = rA + 1
            self.awake[act] += 1
            self.tx[jact] += 1
            self.msent[jact] += live_cnt[joined]
            self.bits[jact] += _FLAG_BITS * live_cnt[joined]
            delivered = joined[es] & inloop[ed]
            got_join = np.bincount(ed[delivered], minlength=nu)
            mrecv += got_join
            silent = inloop & ~joined
            self.rx[U[silent & (got_join > 0)]] += 1
            self.idle[U[silent & (got_join == 0)]] += 1
            elim = inloop & undecided & (got_join > 0)
            eact = U[elim]
            if len(eact):
                self._decide(eact, False, rB + 1)
                undecided &= ~elim
            if len(jact):
                if W - (used + 2) > 0:
                    self.sleep[jact] += W - (used + 2)
                inloop &= ~joined

            # Round C -- OUT announcements from the newly eliminated;
            # survivors drop the announcers from their live sets.
            self.awake[U[inloop]] += 1
            self.tx[eact] += 1
            self.msent[eact] += live_cnt[elim]
            self.bits[eact] += _FLAG_BITS * live_cnt[elim]
            delivered = elim[es] & inloop[ed]
            got_out = np.bincount(ed[delivered], minlength=nu)
            mrecv += got_out
            survivor = inloop & ~elim
            self.rx[U[survivor & (got_out > 0)]] += 1
            self.idle[U[survivor & (got_out == 0)]] += 1
            # Announcers leave the loop, so every OUT shrinks a live set.
            live_cnt -= got_out
            if len(eact):
                if W - (used + 3) > 0:
                    self.sleep[eact] += W - (used + 3)
                inloop &= ~elim
            p += 1

    # ------------------------------------------------------------------

    def _build_result(self, rounds: int) -> RunResult:
        # Every node of the sleeping algorithms finishes at the schedule's
        # final round, hence the constant ``finish`` column.  The arrays
        # result copies the stat columns out of the (scratch-recycled)
        # engine state -- a handful of C passes instead of the 10^5
        # NodeStats dataclasses of the legacy view.
        from ..profiling import phase

        with phase("result_build"):
            if self.result_kind == "arrays":
                from .array_result import ArrayRunResult, result_column

                n = self.n
                narrow = self.dtype_kind == "narrow"
                if rounds <= np.iinfo(np.int64).max:
                    finish_dtype: Any = (
                        np.int32
                        if narrow and rounds <= np.iinfo(np.int32).max
                        else np.int64
                    )
                else:
                    finish_dtype = np.float64

                def col(column: np.ndarray) -> np.ndarray:
                    return result_column(column, narrow=narrow)

                return ArrayRunResult(
                    n=n,
                    rounds=rounds,
                    seed=self.seed,
                    node_ids=self.node_ids,
                    in_mis=self.in_mis.copy(),
                    awake_rounds=col(self.awake),
                    sleep_rounds=col(self.sleep),
                    tx_rounds=col(self.tx),
                    rx_rounds=col(self.rx),
                    idle_rounds=col(self.idle),
                    messages_sent=col(self.msent),
                    bits_sent=col(self.bits),
                    messages_received=col(self.mrecv),
                    decision_round=col(self.decision_round),
                    awake_at_decision=col(self.awake_at_decision),
                    finish_round=np.full(n, rounds, dtype=finish_dtype),
                    arrays=self.arrays,
                )
            if self.n == 0:
                return RunResult(
                    n=0, rounds=0, seed=self.seed, node_stats={}, outputs={},
                    protocols={}, adjacency=self.adjacency,
                )
            return assemble_result(
                n=self.n,
                rounds=rounds,
                seed=self.seed,
                adjacency=self.adjacency,
                node_ids=self.node_ids,
                awake=self.awake.tolist(),
                sleep=self.sleep.tolist(),
                tx=self.tx.tolist(),
                rx=self.rx.tolist(),
                idle=self.idle.tolist(),
                msent=self.msent.tolist(),
                bits=self.bits.tolist(),
                mrecv=self.mrecv.tolist(),
                decision_round=self.decision_round.tolist(),
                awake_at_decision=self.awake_at_decision.tolist(),
                finish=repeat(rounds),
                in_mis=self.in_mis.tolist(),
            )


def simulate_vectorized(
    graph: Any, algorithm: str = "fast-sleeping", **kwargs: Any
) -> RunResult:
    """One-shot convenience wrapper around :class:`VectorizedEngine`."""
    return VectorizedEngine(graph, algorithm, **kwargs).run()
