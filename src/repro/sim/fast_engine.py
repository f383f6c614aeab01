"""Array-backed execution engine for the sleeping MIS algorithms.

The generator engine (:mod:`repro.sim.network`) steps one Python generator
per node and is fully general.  For the paper's two algorithms that
generality is unnecessary: the recursion schedule is *deterministic* --
every participant of a level-``k`` call wakes, exchanges, and sleeps at
rounds computed entirely by :mod:`repro.core.schedule` -- so an execution
can be replayed as a walk over the recursion tree.  That is what this
module does, on two paths chosen per call by its size:

* a large call runs on numpy: its participant set is an index array, and
  its in-call graph ``G[U]`` is a set of CSR rows (the graph's own
  ``deg``/``dst`` at the top); a sub-call keeps its nodes' rows, filtered
  to the sub-set, and each step reads only the rows it is about;
* a call of at most :data:`SCALAR_MAX_NODES` participants and
  :data:`SCALAR_MAX_ENTRIES` row entries runs its whole subtree on Python
  lists (:meth:`VectorizedEngine._scalar_subtree`), where a 2-8 node call
  costs a few microseconds instead of ~100 us of numpy dispatch; its
  counters reach the node arrays in one scatter;
* a larger greedy base call of Algorithm 2 runs the ``greedy`` baseline's
  own phase loop (:mod:`repro.sim.phase_loop`) on its participants and
  rows, capped at the window's phases (:meth:`VectorizedEngine._base_case`);
* awake/``inMIS``/coin state are per-node int arrays, and so are the live
  counts of the base case (live sets are never stored);
* the recursion counts awake rounds, received messages and decisions
  only: every other awake round is a flag broadcast, so ``sleep``,
  ``tx``/``idle``, messages and bits follow from ``awake`` and the degree
  at result build (Algorithm 2's base case adds its own rounds' counts);
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
enforces this over every corner-case graph, both algorithms, several seeds,
and random graphs with the scalar kernel on and off.

What it does *not* do: tracing, fault injection (``loss_rate``), CONGEST
bit-budget enforcement, and per-call :class:`CallRecord` instrumentation
(``protocols`` is empty).  Workloads needing those stay on the generator
engine; ``engine="auto"`` in :func:`repro.api.solve_mis` makes that
fallback automatic.

The engine builds one result type, an
:class:`~repro.sim.array_result.ArrayRunResult`; its legacy per-node view
is made by :func:`repro.sim.batch.run_planned_trial` when a plan asks for
``result="legacy"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from ..core import schedule
from ..graphs.csr import GraphArrays
from .array_result import ArrayRunResult, label_dtype, resolve_dtype_kind
from .errors import MaxRoundsExceededError
from .phase_loop import _FLAG_BITS, PhaseLoop, _select, announced, row_blocks
from .rng import (
    DEFAULT_STREAM,
    draw_u64_array,
    mix64,
    node_rng_bulk,
    randbelow,
    stream_key,
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
        "greedy base cases on the greedy baseline's phase loop",
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

#: A row read replaces the boolean pass over a call's rows when the picked
#: rows hold less than one entry in this many (see :func:`_row_entry_blocks`).
_ROW_READ_SHARE = 4

#: A recursion call of at most this many participants, whose rows hold at
#: most :data:`SCALAR_MAX_ENTRIES` entries, runs its whole subtree on
#: Python lists (:meth:`VectorizedEngine._scalar_subtree`).  Median engine
#: run on gnp-sparse n = 10^3 (60 graphs, 2-vCPU Xeon VM), Algorithm 1 /
#: Algorithm 2, by nodes/entries cap: 64/512 2.27/2.44 ms, 96/768
#: 2.18/2.31, 128/768 2.06/2.01, 192/1536 2.29/1.98; ~7.8 ms without the
#: kernel and ~5 ms with every call on it.  Past ~128 nodes per-node
#: Python work outweighs the numpy dispatch it saves.
SCALAR_MAX_NODES = 128

#: Row-entry cap of the scalar kernel.  Without one, calls of 64 nodes on
#: gnp-dense hold ~2000 entries each and run slower on lists than on
#: arrays; with it, gnp-dense runs the same as without the kernel.
SCALAR_MAX_ENTRIES = 768


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
    10^4-trial sweep that allocation/zeroing churn is measurable.  A
    scratch passed to consecutive engine constructions hands the same
    buffers back (re-filled) whenever name, shape, and dtype match.  Not
    thread-safe, and an engine borrowing from a scratch must finish its
    run before the next engine reuses the pool -- exactly the batch
    runner's sequential per-graph loop.
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


def _borrowed(name: str) -> property:
    """A node-sized int64 buffer of the engine's scratch, taken on access."""
    return property(lambda self: self._scratch.take(name, self.n, np.int64))


class VectorizedEngine:
    """Vectorized replay of Algorithm 1 / Algorithm 2 over one graph.

    Parameters mirror :class:`repro.sim.network.Simulator` plus the
    protocol knobs of the two sleeping algorithms.  ``graph`` may be a
    prebuilt :class:`GraphArrays` to amortize graph preparation across
    many seeds; ``dtype`` is the result's column-dtype policy
    (:data:`repro.sim.array_result.DTYPE_KINDS`).  :meth:`run` returns an
    :class:`~repro.sim.array_result.ArrayRunResult`.
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
        dtype: str = "default",
    ):
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
        self.dtype_kind = resolve_dtype_kind(dtype)

        arrays = graph if isinstance(graph, GraphArrays) else GraphArrays(graph)
        self.arrays = arrays
        self.node_ids = arrays.node_ids
        self.n = arrays.n
        self.dst = arrays.dst
        self.deg = arrays.deg

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
        self._durations = [self._duration(j) for j in range(depth + 1)]
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

        # Per-node state, borrowed from the scratch pool so batch runs
        # recycle it.  The recursion writes only what its schedule cannot
        # give: ``awake`` (one increment per broadcast, so the running
        # count is ``awake_at_decision``), received messages, and the
        # decisions.  ``tx``/``rx``/``idle``/``msent``/``bits`` hold the
        # greedy base case's own rounds only; every other awake round is a
        # flag broadcast, whose counters -- and the sleep column -- are
        # derived at result build (see _stat_columns).
        self.in_mis = scratch.take("in_mis", n, np.int8, fill=-1)
        self.awake = scratch.take("awake", n, np.int64, fill=0)
        self.tx = scratch.take("tx", n, np.int64, fill=0)
        self.rx = scratch.take("rx", n, np.int64, fill=0)
        self.idle = scratch.take("idle", n, np.int64, fill=0)
        self.msent = scratch.take("msent", n, np.int64, fill=0)
        self.bits = scratch.take("bits", n, np.int64, fill=0)
        self.mrecv = scratch.take("mrecv", n, np.int64, fill=0)
        # Round *labels* grow like T(K) = 3(2^K - 1), past int64 once
        # K = ceil(3 log2 n) reaches 62 (n beyond ~1.3x10^6).  So a decision
        # stores an int32 id into ``_clocks``, this run's table of exact
        # Python-int clocks, whose id 0 is the undecided ``-1``; the result
        # reads the labels out of it (see _stat_columns).
        self.decision_id = scratch.take("decision_id", n, np.int32, fill=0)
        self._clocks = _ClockTable()
        self.awake_at_decision = scratch.take(
            "awake_at_decision", n, np.int64, fill=-1
        )
        self.base_truncated = scratch.take("base_truncated", n, bool, fill=False)
        # Set-use-clear masks shared by every call of the recursion (saves
        # O(n) zero-fills per call; see _subgraph and Part 4).
        self._sub_mask = scratch.take("sub_mask", n, bool, fill=False)
        self._nbr_mask = scratch.take("nbr_mask", n, bool, fill=False)
        # Global-to-local node index map for the scalar kernel and the
        # greedy base cases (set-before-use only: each user writes its own
        # participants before reading, so stale entries are never observed).
        self._local_index = scratch.take("local_index", n, np.int32)
        # Algorithm 2's numpy base cases run on this, built at the first.
        self._greedy: Optional[PhaseLoop] = None

    # The phase loop's own state (see _base_case): loop-relative finish
    # rounds, live counts, rank keys and rank payload bits.  Most runs
    # reach no numpy base case, so these are borrowed at first use.
    finish = _borrowed("finish")
    live_cnt = _borrowed("live_cnt")
    _combined = _borrowed("combined")
    _prio_bits = _borrowed("prio_bits")

    # ------------------------------------------------------------------

    @property
    def adjacency(self) -> Dict[Any, Tuple[Any, ...]]:
        """The adjacency dict view (lazy for array-native graphs)."""
        return self.arrays.adjacency

    def run(self) -> ArrayRunResult:
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

            # The top call's in-call graph is the whole CSR, read in place.
            everyone = np.arange(self.n, dtype=np.int64)
            self._recurse(everyone, self.deg, self.dst, self.depth, 0)
            return self._build_result(total_rounds)

    # ------------------------------------------------------------------
    # The recursion (SleepingMISRecursive, Parts 2-6).
    # ------------------------------------------------------------------

    def _recurse(
        self, U: np.ndarray, deg_in: np.ndarray, de: np.ndarray, k: int, r: int
    ) -> None:
        """One call over participant indices ``U`` starting at round ``r``.

        ``G[U]`` rides along as CSR rows: ``de`` concatenates, for each
        node of ``U`` in order, its neighbors inside ``U`` (``deg_in[i]``
        of them for ``U[i]``).  ``U`` ascends and every row ascends, so a
        sub-call's rows are its parent's rows, filtered.  ``G[U]`` is
        symmetric, so ``deg_in`` is also how many flags a node hears per
        broadcast: Parts 2, 4 and 5 each broadcast over the same ``G[U]``,
        so all three receipts are counted up front.
        """
        if len(U) <= SCALAR_MAX_NODES and len(de) <= SCALAR_MAX_ENTRIES:
            self._scalar_subtree(U, deg_in, de, k, r)
            return

        if k == 0:
            if self.algorithm == "sleeping":
                self._decide(U, True, r)
            else:
                self._base_case(U, deg_in, de, r)
            return

        self.mrecv[U] += 3 * deg_in

        # Part 2 -- first isolated node detection: a node is isolated in
        # G[U] exactly when its row is empty.
        self.awake[U] += 1
        iso = U[deg_in == 0]
        if len(iso):
            self._decide(iso, True, r + 1)

        # Part 3 -- left recursion; everyone else sleeps through it.
        left = (self.in_mis[U] == -1) & self._coin_heads(U, k)
        L = _select(U, left)
        if len(L):
            self._recurse(L, *self._subgraph(L, left, deg_in, de), k - 1, r + 1)

        # Part 4 -- synchronization and elimination: the MIS members'
        # rows name every node with an MIS neighbor.  The flag mask
        # borrows one shared buffer (set, read, cleared over U) instead
        # of zeroing a fresh O(n) array per call.
        r1 = r + 1 + self._durations[k - 1]
        self.awake[U] += 1
        status = self.in_mis[U]
        has_mis_nbr = self._nbr_mask
        for _, heads in _row_entry_blocks(status == 1, deg_in, de):
            has_mis_nbr[heads] = True
        elim = _select(U, (status == -1) & has_mis_nbr[U])
        has_mis_nbr[U] = False  # every row entry lies in U
        if len(elim):
            self._decide(elim, False, r1 + 1)

        # Part 5 -- second isolated node detection.  No undecided node has
        # an MIS neighbor any more, so one joins exactly when it has no
        # undecided neighbor: when its row of G[D] is empty, for D the
        # undecided nodes.
        r2 = r1 + 1
        self.awake[U] += 1
        pending = self.in_mis[U] == -1
        D = _select(U, pending)
        if not len(D):
            return
        deg_D, de_D = self._subgraph(D, pending, deg_in, de)
        lone = deg_D == 0
        if lone.any():
            self._decide(D[lone], True, r2 + 1)
            keep = ~lone
            D, deg_D = D[keep], deg_D[keep]

        # Part 6 -- right recursion over the nodes still undecided; the
        # joiners' rows were empty, so G[D]'s rows are already G[R]'s.
        if len(D):
            self._recurse(D, deg_D, de_D, k - 1, r2 + 1)

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

    def _subgraph(
        self, S: np.ndarray, pick: np.ndarray, deg_in: np.ndarray,
        de: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``G[S]`` as CSR rows ``(deg_S, de_S)``, for ``S = U[pick]``.

        The rows of ``S``, keeping the entries inside ``S``, filtered a
        row block at a time (:func:`_row_entry_blocks`); a row's length
        is its kept count.  Every picked row is nonempty (Part 2 decided
        the nodes with none), so each row is one ``reduceat`` segment of
        the keep mask.  Past one block, ``de_S`` grows in place, so
        beyond it only one block's masks and entries are in flight.
        """
        inS = self._sub_mask
        inS[S] = True
        counts = []
        de_S = None
        w = 0
        for lens, entries in _row_entry_blocks(pick, deg_in, de):
            keep = inS[entries]
            kept = _select(entries, keep)
            del entries
            starts = lens.cumsum()
            starts -= lens
            # Summing int64 copies beats reduceat's own cast from bool.
            counts.append(np.add.reduceat(keep.astype(np.int64), starts))
            del keep, starts
            if de_S is None:
                de_S = kept
            else:  # no view of de_S exists yet, so it may grow in place
                de_S.resize(w + len(kept), refcheck=False)
                de_S[w:] = kept
            w += len(kept)
            del kept
        inS[S] = False
        deg_S = counts[0] if len(counts) == 1 else np.concatenate(counts)
        return deg_S, de_S

    def _decide(self, nodes: np.ndarray, value: bool, clock: int) -> None:
        """Fix ``inMIS`` for ``nodes`` at wall-clock ``clock``, exactly once."""
        assert (self.in_mis[nodes] == -1).all(), "re-deciding a node"
        self.in_mis[nodes] = 1 if value else 0
        self.decision_id[nodes] = self._clocks[clock]
        self.awake_at_decision[nodes] = self.awake[nodes]

    # ------------------------------------------------------------------
    # Algorithm 2's greedy base case, in a fixed window of W rounds.
    # ------------------------------------------------------------------

    def _base_case(
        self, U: np.ndarray, deg_in: np.ndarray, de: np.ndarray, r: int
    ) -> None:
        """The base case over ``U``: a discovery round, then the phase
        loop under the ``greedy`` policy for the window's ``(W - 1) // 3``
        phases, its round labels offset by ``r + 1``.

        Discovery is a flag broadcast (counted at result build) that seeds
        the live sets with the in-call rows.  A node finishing at loop
        round ``f`` was awake ``1 + f`` rounds; its ``tx``/``idle`` follow
        from ``f`` as the phased engine's do, and the ``OUT`` messages it
        heard shrank its live count.  Every step costs ``|U|``.
        """
        if self._greedy is None:
            self._greedy = PhaseLoop(self, "greedy")
        loop = self._greedy
        entry_awake = self.awake[U]
        entry_rx = self.rx[U]
        loop.run(U, deg_in, de, (self.base_rounds - 1) // 3)
        f = loop.finish[U]
        status = self.in_mis[U]
        sent_last = announced(f, status)
        tx = (f + 1) // 3 + sent_last
        self.tx[U] += tx
        self.idle[U] += f - tx - (self.rx[U] - entry_rx)
        self.awake[U] = entry_awake + 1 + f
        self.mrecv[U] += 2 * deg_in - loop.live_cnt[U]
        decided = status != -1
        self.base_truncated[U[~decided]] = True
        # Decision rounds after the call's start r: the loop's labels
        # plus the discovery round, all inside the window, so the clocks
        # r + 0..max(rel) are interned once and ``rel`` indexes their ids.
        rel = (f - sent_last + 1)[decided]
        idx = U[decided]
        self.awake_at_decision[idx] = entry_awake[decided] + rel
        if len(rel):
            clocks = self._clocks
            ids = [clocks[r + v] for v in range(int(rel.max()) + 1)]
            self.decision_id[idx] = np.array(ids, dtype=np.int32)[rel]

    # ------------------------------------------------------------------
    # The scalar kernel: a whole small subtree on Python lists.
    # ------------------------------------------------------------------

    def _scalar_subtree(
        self, U: np.ndarray, deg_in: np.ndarray, de: np.ndarray, k: int, r: int
    ) -> None:
        """The call over ``U`` and its whole subtree, on Python lists.

        The same execution as :meth:`_recurse` and :meth:`_base_case`,
        step for step, for a call small enough that numpy's per-call
        dispatch (~100 us for a 2-8 node call) would dwarf its data.  The
        call's rows are read once, as sets of local ids ``0..|U|-1``
        (ascending with ``U``); the subtree's coins come from one
        ``k x |U|`` draw.  Every counter the recursion writes --
        ``awake``, ``mrecv``, the decisions, the base case's
        ``tx``/``rx``/``idle``/``msent``/``bits``, truncation flags and
        stream counters -- accumulates in local lists and is scattered to
        the node arrays once, at the end.

        Where one step counts several awake rounds at once (all three of
        a one-node call, Parts 4 and 5 of a call, rounds A and B of a
        base phase), a decision among them subtracts the ones that have
        not yet happened (``ahead``).
        """
        assert (self.in_mis[U] == -1).all(), "re-deciding a node"
        m = len(U)
        local = self._local_index
        local[U] = np.arange(m, dtype=np.int32)
        flat = local[de].tolist()
        rows: List[Set[int]] = []
        end = 0
        for d in deg_in.tolist():
            rows.append(set(flat[end:end + d]))
            end += d
        heads = self._scalar_heads(U, k)
        durations = self._durations

        status = [-1] * m
        awake = [0] * m
        mrecv = [0] * m
        clock_at = [0] * m
        awake_at = [0] * m

        def decide(v: int, value: int, clock: int, ahead: int) -> None:
            assert status[v] == -1, "re-deciding a node"
            status[v] = value
            clock_at[v] = clock
            awake_at[v] = awake[v] - ahead

        base = (
            None if self.algorithm == "sleeping"
            else _ScalarBase(self, U, decide, awake, mrecv)
        )

        def call(S: List[int], rows_S: List[Set[int]], k: int, r: int) -> None:
            if k == 0:
                if base is None:
                    for v in S:
                        decide(v, 1, r, 0)
                else:
                    base.run(S, rows_S, r)
                return
            if len(S) == 1:
                v = S[0]
                awake[v] += 3
                decide(v, 1, r + 1, 2)
                return

            # Part 2 -- every broadcast of the call is heard up front; the
            # empty rows are isolated.  Everyone else is undecided, and
            # the heads among them go left.
            level = k - 1
            coin = heads[level]
            joiners = []
            L: List[int] = []
            rows_L = []
            for v, row in zip(S, rows_S):
                awake[v] += 1
                if row:
                    mrecv[v] += 3 * len(row)
                    if coin[v]:
                        L.append(v)
                        rows_L.append(row)
                else:
                    decide(v, 1, r + 1, 0)
                    joiners.append(v)

            # Part 3 -- left recursion.
            if L:
                inL = set(L)
                call(L, [row & inL for row in rows_L], level, r + 1)
                joiners += [v for v in L if status[v] == 1]

            # Part 4 -- elimination by an MIS neighbor; Parts 4 and 5
            # wake everyone, and both are counted here.
            clock = r + 2 + durations[level]
            mis = set(joiners)
            D: List[int] = []
            rows_D = []
            for v, row in zip(S, rows_S):
                awake[v] += 2
                if status[v] == -1:
                    if mis.isdisjoint(row):
                        D.append(v)
                        rows_D.append(row)
                    else:
                        decide(v, 0, clock, 1)

            # Part 5 -- the undecided with no undecided neighbor join.
            if not D:
                return
            clock += 1
            inD = set(D)
            R: List[int] = []
            rows_R: List[Set[int]] = []
            for v, row in zip(D, rows_D):
                row = row & inD
                if row:
                    R.append(v)
                    rows_R.append(row)
                else:
                    decide(v, 1, clock, 0)

            # Part 6 -- right recursion over the rest.
            if R:
                call(R, rows_R, level, clock)

        call(list(range(m)), rows, k, r)

        # One scatter per counter.
        entry_awake = self.awake[U]
        self.awake[U] = entry_awake + awake
        self.mrecv[U] += mrecv
        decided = [v for v in range(m) if status[v] != -1]
        if decided:
            if len(decided) < m:
                idx = U[decided]
                entry_awake = entry_awake[decided]
                status = [status[v] for v in decided]
                clock_at = [clock_at[v] for v in decided]
                awake_at = [awake_at[v] for v in decided]
            else:
                idx = U
            assert (self.in_mis[idx] == -1).all(), "re-deciding a node"
            self.in_mis[idx] = status
            self.decision_id[idx] = list(map(self._clocks.__getitem__, clock_at))
            self.awake_at_decision[idx] = entry_awake + awake_at
        if base is not None:
            base.scatter()

    def _scalar_heads(self, U: np.ndarray, k: int) -> List[List[bool]]:
        """Coins of levels ``1..k`` for ``U``: entry ``[level - 1][i]`` is
        node ``U[i]``'s (True = recurse left), as :meth:`_coin_heads`."""
        if not k:
            return []
        if self.coins is not None:
            return (self.coins[U, :k] == 1).T.tolist()
        draws = draw_u64_array(
            self._key, U, np.arange(k, dtype=np.int64)[:, None]
        )
        return (u64_to_unit_float(draws) < self.coin_bias).tolist()

    # ------------------------------------------------------------------

    def _stat_columns(self, rounds: int) -> Dict[str, np.ndarray]:
        """The columns the recursion never writes, as fresh columns.

        Every node is awake or asleep in each of the ``rounds`` rounds, so
        ``sleep = rounds - awake``, and every node finishes at the
        schedule's final round.  Every awake round that is not one of the
        greedy base's rounds A/B/C -- each of which credits exactly one
        of ``tx``/``rx``/``idle`` -- is a flag broadcast to all ``deg``
        graph neighbors: a tx round (an idle one for a port-less node)
        sending ``deg`` 2-bit messages.  The round labels are read out of
        small tables of exact ints -- the decision clocks by id, the sleep
        spans by awake count -- in the dtype of
        :func:`~repro.sim.array_result.label_dtype`.
        """
        awake, deg = self.awake, self.deg
        flags = awake - self.tx
        flags -= self.rx
        flags -= self.idle
        ported = deg > 0
        sent = deg * flags
        labels = label_dtype(rounds)
        top = int(awake.max()) if self.n else 0
        spans = np.array([rounds - a for a in range(top + 1)], labels)
        clocks = np.array(list(self._clocks), labels)
        cols = {
            "tx_rounds": self.tx + flags * ported,
            "idle_rounds": self.idle + flags * ~ported,
            "messages_sent": self.msent + sent,
            "sleep_rounds": spans[awake],
            "decision_round": clocks[self.decision_id],
            "finish_round": np.full(self.n, rounds, labels),
        }
        sent *= _FLAG_BITS
        cols["bits_sent"] = self.bits + sent
        return cols

    def _build_result(self, rounds: int) -> ArrayRunResult:
        # The result copies the columns the recursion wrote out of the
        # (scratch-recycled) engine state -- a handful of C passes.
        from ..profiling import phase

        with phase("result_build"):
            return ArrayRunResult.from_columns(
                borrowed={
                    "in_mis": self.in_mis,
                    "awake_rounds": self.awake,
                    "rx_rounds": self.rx,
                    "messages_received": self.mrecv,
                    "awake_at_decision": self.awake_at_decision,
                },
                fresh=self._stat_columns(rounds),
                dtype=self.dtype_kind,
                n=self.n,
                rounds=rounds,
                seed=self.seed,
                node_ids=self.node_ids,
                arrays=self.arrays,
            )


class _ClockTable(dict):
    """One run's decision clocks, each mapped to its int32 id.

    Ids count up in first-use order, so the keys in order are the id ->
    clock table; id 0 is the ``-1`` "undecided" sentinel.  Looking up a
    new clock interns it.
    """

    def __init__(self) -> None:
        super().__init__({-1: 0})

    def __missing__(self, clock: int) -> int:
        self[clock] = ident = len(self)
        return ident


class _ScalarBase:
    """Algorithm 2's greedy base cases inside one scalar subtree.

    The phase loop of :meth:`VectorizedEngine._base_case` on Python
    lists, one round at a time: :meth:`run` takes a base call's local ids
    and in-call rows (sets of local ids) and plays its window against the
    subtree's ``awake``/``mrecv`` lists and ``decide``.  Its own counters
    (``tx``/``rx``/``idle``/``msent``/``bits``, the truncated nodes, the
    v2 stream counters) are allocated by the first base call and
    scattered once by :meth:`scatter`.  Ranks
    are drawn at the array path's stream positions and compared as
    ``(value, id)`` tuples; a rank message costs ``max(bit_length, 1) +
    id bits + 10``.
    """

    __slots__ = (
        "engine", "U", "decide", "awake", "mrecv", "gid", "id_bits",
        "ctr", "tx", "rx", "idle", "msent", "bits", "truncated",
    )

    def __init__(
        self, engine: "VectorizedEngine", U: np.ndarray,
        decide: Any, awake: List[int], mrecv: List[int],
    ) -> None:
        self.engine = engine
        self.U = U
        self.decide = decide
        self.awake = awake
        self.mrecv = mrecv
        self.gid: Optional[List[int]] = None

    def _start(self) -> None:
        engine, U = self.engine, self.U
        m = len(U)
        self.gid = U.tolist()
        self.id_bits = engine.arrays.id_bits[U].tolist()
        self.ctr = None if engine._ctr is None else engine._ctr[U].tolist()
        self.tx = [0] * m
        self.rx = [0] * m
        self.idle = [0] * m
        self.msent = [0] * m
        self.bits = [0] * m
        self.truncated: List[int] = []

    def run(self, S: List[int], rows_S: List[Set[int]], r: int) -> None:
        if self.gid is None:
            self._start()
        engine = self.engine
        W = engine.base_rounds
        bound = engine._rank_bound
        rngs, skey, ctr = engine._rngs, engine._key, self.ctr
        gid, id_bits = self.gid, self.id_bits
        awake, mrecv, decide = self.awake, self.mrecv, self.decide
        tx, rx, idle = self.tx, self.rx, self.idle
        msent, bits = self.msent, self.bits

        # Discovery: live sets start as the in-call rows, one presence
        # flag heard per neighbor; then one rank draw per participant.
        live: Dict[int, Set[int]] = {}
        rank: Dict[int, Tuple[int, int]] = {}
        rank_bits: Dict[int, int] = {}
        for v, row in zip(S, rows_S):
            awake[v] += 1
            mrecv[v] += len(row)
            live[v] = row
            g = gid[v]
            if rngs is not None:
                value = randbelow(rngs[g], bound)
            else:
                value = mix64(skey + (g << 32) + ctr[v]) % bound
                ctr[v] += 1
            rank[v] = (value, g)
            rank_bits[v] = max(value.bit_length(), 1) + id_bits[v] + 10

        act = S
        clock = r + 1
        while True:
            # Loop head: the isolated join; out of window, the rest leave.
            closing = clock - r + 3 > W
            stay = []
            for v in act:
                if not live[v]:
                    decide(v, 1, clock, 0)
                elif closing:
                    self.truncated.append(v)
                else:
                    stay.append(v)
            act = stay
            if not act:
                return

            # Round A -- rank exchange; a node beating every live
            # neighbor joins.  Everyone in the loop is awake in rounds A
            # and B, so both are counted here.
            joined = []
            for v in act:
                row = live[v]
                c = len(row)
                awake[v] += 2
                tx[v] += 1
                msent[v] += c
                bits[v] += rank_bits[v] * c
                mrecv[v] += c
                if max(map(rank.__getitem__, row)) < rank[v]:
                    joined.append(v)
            for v in joined:
                decide(v, 1, clock + 1, 1)

            # Round B -- JOINs; a silent node that hears one is out.
            J = set(joined)
            for v in joined:
                c = len(live[v])
                tx[v] += 1
                msent[v] += c
                bits[v] += _FLAG_BITS * c
            silent = [v for v in act if v not in J]
            elim = []
            for v in silent:
                got = len(live[v] & J)
                if got:
                    mrecv[v] += got
                    rx[v] += 1
                    elim.append(v)
                else:
                    idle[v] += 1
            for v in elim:
                decide(v, 0, clock + 2, 0)

            # Round C -- OUTs; survivors drop the announcers.
            E = set(elim)
            survivors = []
            for v in silent:
                awake[v] += 1
                row = live[v]
                if v in E:
                    c = len(row)
                    tx[v] += 1
                    msent[v] += c
                    bits[v] += _FLAG_BITS * c
                    mrecv[v] += len(row & E)
                    continue
                survivors.append(v)
                if E and not E.isdisjoint(row):
                    rx[v] += 1
                    mrecv[v] += len(row & E)
                    live[v] = row - E
                else:
                    idle[v] += 1
            act = survivors
            clock += 3

    def scatter(self) -> None:
        """Add this subtree's base-case counters to the engine's arrays."""
        if self.gid is None:
            return
        engine, U = self.engine, self.U
        engine.tx[U] += self.tx
        engine.rx[U] += self.rx
        engine.idle[U] += self.idle
        engine.msent[U] += self.msent
        engine.bits[U] += self.bits
        if self.truncated:
            engine.base_truncated[U[self.truncated]] = True
        if self.ctr is not None:
            engine._ctr[U] = self.ctr


def _row_entry_blocks(
    pick: np.ndarray, deg_in: np.ndarray, de: np.ndarray
) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
    """The concatenated rows of the picked nodes of a call's CSR rows,
    in row blocks of about ``EDGE_BLOCK`` entries
    (:func:`repro.sim.phase_loop.row_blocks`).

    Gives ``(lens, entries)`` per block, in row order: the block's
    picked rows' lengths and their entries.  When the picked rows hold a
    large share of the entries, one boolean pass over each block of the
    call's rows keeps them.  When they hold few, only those rows are
    read: their entry positions are built from the row starts, so the
    cost follows the rows read, not the call's size.  A call that fits
    in one block does the work of an unblocked pass.
    """
    lens = _select(deg_in, pick)
    total = int(lens.sum())
    if _ROW_READ_SHARE * total >= len(de):
        blocks = row_blocks(deg_in, len(de))
        if len(blocks) == 1:
            return [(lens, de[pick.repeat(deg_in)])]
        return (
            (
                _select(deg_in[b0:b1], pick[b0:b1]),
                de[e0:e1][pick[b0:b1].repeat(deg_in[b0:b1])],
            )
            for b0, b1, e0, e1 in blocks
        )
    ends = _select(np.cumsum(deg_in, dtype=np.int32), pick)
    return (
        (lens[b0:b1], de[_row_positions(ends[b0:b1], lens[b0:b1])])
        for b0, b1, _, _ in row_blocks(lens, total)
    )


def _row_positions(ends: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The entry positions of rows of lengths ``lens`` ending at
    ``ends``, concatenated.

    Entry ``j`` of row ``i`` sits at ``ends[i] - lens[i] + j``;
    subtracting the rows' offsets in the output turns a flat arange into
    those positions.
    """
    positions = np.repeat(ends - np.cumsum(lens, dtype=np.int32), lens)
    positions += np.arange(len(positions), dtype=np.int32)
    return positions
