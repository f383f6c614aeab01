"""Vectorized lockstep engine for the phase-based MIS baselines.

All four traditional-model baselines -- Luby, distributed randomized
greedy (:mod:`repro.baselines.luby` / :mod:`repro.baselines.dist_greedy`,
built on :class:`repro.baselines._phased.PhasedMISProtocol`), Ghaffari's
desire-level algorithm (:mod:`repro.baselines.ghaffari`), and
Alon--Babai--Itai (:mod:`repro.baselines.abi`) -- are round-synchronous:
nodes never sleep, every live node is in the same three-round phase at the
same time, and termination is the only way out.  That lockstep structure
is what this engine exploits -- one numpy pass over the edge set per
round, instead of one Python generator step per node:

* phase ``p`` occupies rounds ``3p`` (rank/mark exchange), ``3p + 1``
  (``JOIN`` announcements), ``3p + 2`` (``OUT`` announcements);
* per-node live sets are never stored: a phase's deliveries are the
  edges between in-loop nodes (see *Live-set invariant* below);
* priorities are compared through dense ranks (``(value, id)`` tuple order
  == ``rank * n + index`` order, because node index order is node id
  order), so numpy stays in int64 even though raw draws reach ``n^6``.

The four baselines differ only in how a phase's winners are chosen:

* ``luby`` redraws a rank from ``[0, n^4]`` every phase; ``greedy`` draws
  one permanent rank from ``[0, n^6]``.  The highest ``(rank, id)`` in a
  closed neighborhood wins.
* ``ghaffari`` marks with probability ``2^-exponent`` (the desire level);
  a marked node with **no** marked live neighbor wins, and exponents
  update from the exact effective degree of the surviving neighborhood.
* ``abi`` marks with probability ``1 / (2 deg)``; a marked node wins
  unless a marked live neighbor beats it on ``(degree, id)``.

Equivalence contract
--------------------
Identical to the sleeping engine's: for the same ``(graph, seed, rng)``
this engine reproduces the generator engine's execution exactly -- the
same per-node random draws in the same order, hence the same priorities,
decisions, phase counts, round numbers, and per-node :class:`NodeStats`
down to message, bit, and tx/rx/idle counters.
``tests/test_engine_equivalence.py`` enforces this over every corner-case
graph, all four baselines, several seeds, and both RNG stream formats.
Ghaffari's desire-level comparison is computed in *exact integer
arithmetic* on both engines (see :meth:`_update_desire`), so equivalence
does not hinge on floating-point summation order.

Live-set invariant
------------------
The generator protocols keep a per-node live set, initially the whole
neighborhood.  Among in-loop nodes it is always the in-loop neighborhood,
because every way out of the loop also leaves every live set it belongs to:

* a winner's ``JOIN`` reaches every live neighbor, and each one is
  eliminated (no survivor is adjacent to a winner);
* every eliminated node announces ``OUT`` to its live set, and every
  survivor drops every ``OUT`` announcer (``live -= set(inbox)``);
* isolated-among-survivors nodes have no in-loop neighbor, and a
  ``max_phases`` exit removes all in-loop nodes at once.

So live sets are symmetric, every round-A report is kept, and a live
count is an in-loop degree.  Algorithm 2's greedy base case (whose window
exit also removes all in-loop nodes at once) relies on the same invariant.

Counters
--------
The phases record only what a node's finish round cannot give: ``rx``
(the round a node hears a ``JOIN`` and is eliminated, and each round a
survivor hears an ``OUT``), messages and bits sent, and the receipts of
round A and of the ``JOIN`` that eliminates a node.  Everything else is
derived at result build (:meth:`PhasedVectorizedEngine._stat_columns`):
nodes never sleep, so ``awake = finish`` and a decided node's
``awake_at_decision`` is its decision round; a node sends in round A of
each phase it starts, ``(finish + 1) // 3`` of them, plus one ``JOIN`` or
``OUT`` announcement; its other awake rounds are idle; and the ``OUT``
messages it heard are exactly the ones that shrank its live count, ``deg
- live_cnt`` at exit.

Progress guarantee: for ``luby``/``greedy``, in every phase the live node
holding the globally highest ``(priority, id)`` key beats all of its live
neighbors and joins, so at most ``n`` phases run even without
``max_phases``.  The marking baselines (``ghaffari``/``abi``) only make
progress with probability (a phase where nobody marks, or two adjacent
nodes contest a mark, removes nothing), exactly like their generator
counterparts -- bound them with ``max_phases``/``max_rounds`` when an
adversarial input could stall.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..graphs.csr import GraphArrays
from .array_result import ArrayRunResult, resolve_dtype_kind
from .errors import MaxRoundsExceededError
from .fast_engine import (
    _FLAG_BITS,
    EngineScratch,
    PHASED_ALGORITHMS,
    draw_dense_ranks,
)
from .rng import (
    DEFAULT_STREAM,
    bit_length_u64,
    draw_u64_array,
    node_rng_bulk,
    stream_key,
    u64_to_unit_float,
    validate_stream,
)

#: The phased baselines whose phase draws a marking *coin* (compared
#: against an algorithm-specific probability) instead of a rank.
MARKING_ALGORITHMS = ("ghaffari", "abi")

#: Payload framing bits of a ``(flag, small-int)`` round-A message:
#: bool tag (2) + int tag/sign (2) + tuple framing (4 per element).
_MARK_FRAME_BITS = 12


class PhasedVectorizedEngine:
    """Vectorized replay of a phased baseline over one graph.

    Parameters mirror :func:`repro.api.solve_mis` for the four baselines:
    ``algorithm`` is ``"luby"``, ``"greedy"``, ``"ghaffari"``, or
    ``"abi"``.  ``graph`` may be a prebuilt :class:`GraphArrays`, and
    ``scratch`` an :class:`EngineScratch` shared across trials; ``dtype``
    is the result's column-dtype policy.  :meth:`run` returns an
    :class:`~repro.sim.array_result.ArrayRunResult`, as the sleeping
    engine's does.
    """

    def __init__(
        self,
        graph: Any,
        algorithm: str = "luby",
        *,
        seed: Optional[int] = 0,
        max_phases: Optional[int] = None,
        max_rounds: Optional[int] = None,
        rng: str = DEFAULT_STREAM,
        scratch: Optional[EngineScratch] = None,
        dtype: str = "default",
    ):
        if algorithm not in PHASED_ALGORITHMS:
            raise ValueError(
                f"vectorized phased engine supports {PHASED_ALGORITHMS}, "
                f"got {algorithm!r}"
            )
        if max_phases is not None and max_phases < 1:
            raise ValueError(f"max_phases must be positive, got {max_phases}")
        validate_stream(rng)
        self.algorithm = algorithm
        self.seed = seed
        self.max_phases = max_phases
        self.max_rounds = max_rounds
        self.rng_stream = rng
        self.dtype_kind = resolve_dtype_kind(dtype)

        arrays = graph if isinstance(graph, GraphArrays) else GraphArrays(graph)
        self.arrays = arrays
        self.node_ids = arrays.node_ids
        self.n = arrays.n
        n = self.n

        # Luby redraws from [0, n^4] every phase; greedy draws one
        # permanent rank from [0, n^6] (matching the protocol classes).
        # The marking baselines draw unit floats, not ranks.
        self._bound = n**4 + 1 if algorithm == "luby" else n**6 + 1

        scratch = scratch if scratch is not None else EngineScratch()
        self._scratch = scratch
        if rng == "pernode":
            self._rngs: Optional[List[Any]] = node_rng_bulk(
                seed, self.node_ids
            )
            self._key = None
            self._ctr = None
        else:
            self._rngs = None
            self._key = stream_key(seed)
            self._ctr = scratch.take("rng_ctr", n, np.int64, fill=0)

        # Per-node state and the statistics the phases record; ``awake``,
        # ``tx``, ``idle`` and ``awake_at_decision`` follow from these at
        # result build (see _stat_columns).
        self.in_mis = scratch.take("in_mis", n, np.int8, fill=-1)
        self.rx = scratch.take("rx", n, np.int64, fill=0)
        self.msent = scratch.take("msent", n, np.int64, fill=0)
        self.bits = scratch.take("bits", n, np.int64, fill=0)
        self.mrecv = scratch.take("mrecv", n, np.int64, fill=0)
        self.decision_round = scratch.take(
            "decision_round", n, np.int64, fill=-1
        )
        self.finish = scratch.take("finish", n, np.int64, fill=-1)
        # In-loop degree == live-set size (the live-set invariant); at
        # exit, ``deg - live_cnt`` is how many OUTs a node heard.
        self.live_cnt = scratch.take("live_cnt", n, np.int64)
        self.live_cnt[:] = arrays.deg
        # Priority state: combined keys (dense rank * n + index for the
        # rank baselines, degree * n + index for abi, constant 0 for
        # ghaffari -- any marked neighbor vetoes a ghaffari win, which is
        # exactly "never strictly above another contender's key") and
        # per-message payload bit costs.
        self._combined = scratch.take(
            "combined", n, np.int64,
            fill=0 if algorithm == "ghaffari" else -1,
        )
        self._prio_bits = scratch.take("prio_bits", n, np.int64, fill=0)
        if algorithm in MARKING_ALGORITHMS:
            self._marked = scratch.take("marked", n, bool, fill=False)
        if algorithm == "ghaffari":
            # Desire level p_v = 2 ** -exponent, initially 1/2.
            self._exponent = scratch.take("exponent", n, np.int64, fill=1)
        # Global-to-local map for the phase loop's node frontier
        # (set-before-use only: each phase writes its own frontier
        # before reading, so stale entries are never observed).
        self._local_index = scratch.take("local_index", n, np.int32)

    # ------------------------------------------------------------------

    def _check_clock(self, round_: int, live: int) -> None:
        if self.max_rounds is not None and round_ > self.max_rounds and live:
            raise MaxRoundsExceededError(self.max_rounds, live)

    def _draw_priorities(self, U: np.ndarray) -> None:
        """Fill combined keys + payload bits for the in-loop nodes ``U``.

        One draw per node, at the same stream position the generator
        engine's protocol would use (see
        :func:`repro.sim.fast_engine.draw_dense_ranks`).  ``(value, id)``
        tuple order equals ``rank * n + index`` order because dense ranks
        preserve value order and index order is id order.
        """
        n = self.n
        dense, raw_bits = draw_dense_ranks(
            self._rngs, self._key, self._ctr, U, self._bound
        )
        self._combined[U] = dense * n + U
        self._prio_bits[U] = raw_bits + self.arrays.id_bits[U] + 10

    def _draw_unit_floats(self, U: np.ndarray) -> np.ndarray:
        """One ``random()`` draw per node of ``U``, on either stream.

        v1: one ``Random.random()`` per node, in ``U`` order -- the
        generator engine's stream positions.  v2: a whole-array draw at
        each node's counter (then advanced), mapped to [0, 1) exactly as
        :meth:`repro.sim.rng.CounterRNG.random` does.
        """
        if self._rngs is not None:
            return np.fromiter(
                (self._rngs[i].random() for i in U.tolist()),
                dtype=np.float64,
                count=len(U),
            )
        u = draw_u64_array(self._key, U, self._ctr[U])
        self._ctr[U] += 1
        return u64_to_unit_float(u)

    def _draw_marks(
        self, U: np.ndarray, live_cnt_l: np.ndarray, marked_l: np.ndarray
    ) -> None:
        """Mark the in-loop nodes ``U`` and fill their payload bit costs.

        ``ghaffari`` marks with probability ``2^-exponent`` and sends
        ``(marked, exponent)``; ``abi`` marks with probability
        ``1 / (2 deg)`` (``deg`` = current live degree, always >= 1 here)
        and sends ``(marked, deg)`` -- its combined key ``deg * n + index``
        reproduces the protocol's ``(degree, id)`` tuple order.  Both
        thresholds are single IEEE operations, so the numpy comparison
        reproduces the scalar protocol's coin exactly.  ``live_cnt_l``
        and ``marked_l`` are frontier-local (slot ``i`` is node ``U[i]``):
        the coins land in ``marked_l`` without an O(n) clear.
        """
        n = self.n
        if self.algorithm == "ghaffari":
            payload_val = self._exponent[U]
            # ldexp(1, -e) is the exact IEEE value of python's 2.0**-e
            # (ldexp's exponent operand is int32 on every platform).
            threshold = np.ldexp(
                1.0, -np.minimum(payload_val, 2000).astype(np.int32)
            )
        else:
            payload_val = live_cnt_l
            threshold = 1.0 / (2.0 * payload_val.astype(np.float64))
            self._combined[U] = payload_val * n + U
        self._prio_bits[U] = (
            bit_length_u64(payload_val.astype(np.uint64)) + _MARK_FRAME_BITS
        )
        marked_l[:] = self._draw_unit_floats(U) < threshold

    def _update_desire(self, U: np.ndarray, df: np.ndarray) -> None:
        """Ghaffari's end-of-phase desire-level update for the survivors.

        A survivor's *effective degree* is ``sum(2^-e_u)`` over the
        neighbors ``u`` whose round-A report it kept and that are still in
        its live set after the round-C pruning -- by the live-set
        invariant, exactly its surviving neighbors.  The exponent rises
        when that sum reaches 2 and falls (floored at 1) otherwise.
        ``U`` holds the survivors and ``df`` the next phase's frontier:
        the surviving receivers (global ids), one row of ``live_cnt[v]``
        per survivor ``v`` in ``U`` order -- the whole update is
        O(frontier), never O(n).
        The comparison is computed in exact integer arithmetic --
        ``sum(2^(E - e_u)) >= 2^(E+1)`` with ``E`` the largest exponent --
        matching the protocol's exact-shift implementation independent of
        any summation order.  The int64 fast path covers every exponent
        range a real run produces; pathological spreads (possible only
        after ~50+ adversarial phases) fall back to per-receiver Python
        big-int sums, still exact.
        """
        nu = len(U)
        high_l = np.zeros(nu, dtype=bool)
        if len(df):
            local = self._local_index
            local[U] = np.arange(nu, dtype=np.int32)
            heads = local[df]
            exps = self._exponent[U].repeat(self.live_cnt[U])
            cap = int(exps.max())
            spread = cap - int(exps.min())
            if cap + 1 <= 62 and spread + self.n.bit_length() <= 62:
                contrib = np.int64(1) << (np.int64(cap) - exps)
                acc = np.zeros(nu, dtype=np.int64)
                np.add.at(acc, heads, contrib)
                high_l = acc >= np.int64(1) << np.int64(cap + 1)
            else:  # pragma: no cover - adversarial exponent spreads
                grouped: dict = {}
                for v, e in zip(heads.tolist(), exps.tolist()):
                    grouped.setdefault(v, []).append(e)
                for v, group in grouped.items():
                    top = max(group)
                    total = sum(1 << (top - e) for e in group)
                    high_l[v] = total >= 1 << (top + 1)
        self._exponent[U[high_l]] += 1
        lowered = U[~high_l]
        self._exponent[lowered] = np.maximum(
            1, self._exponent[lowered] - 1
        )

    def _decide(self, idx: np.ndarray, value: bool, clock: int) -> None:
        assert (self.in_mis[idx] == -1).all(), "re-deciding a node"
        self.in_mis[idx] = 1 if value else 0
        self.decision_round[idx] = clock

    # ------------------------------------------------------------------

    @property
    def adjacency(self):
        """The adjacency dict view (lazy for array-native graphs)."""
        return self.arrays.adjacency

    def run(self) -> ArrayRunResult:
        """Replay the full execution and return the generator-equal result.

        The phase loop walks a **shrinking edge frontier** and a matching
        **node frontier**.  ``U`` holds the (ascending) indices of the
        in-loop nodes; ``df`` holds the receivers of the edges between
        in-loop nodes -- by the live-set invariant, exactly the phase's
        deliveries -- as one row per node of ``U``, in ``U`` order, of
        ``live_cnt`` (the in-loop degree) edges.  Phase 0's frontier is the
        CSR's ``dst`` itself; after each phase one mask keeps the
        survivors' rows and a second the edges into survivors, so a late
        phase with a handful of survivors touches a handful of edges and
        nodes, never the whole CSR.  Because rows are laid out by sender,
        every sender-side quantity (a winner's ``JOIN``, an announcer's
        ``OUT``, a round-A key) reaches its edges by one ``np.repeat``
        over the rows, never a gather.  All per-phase aggregation happens
        in ``U``'s local index space (slot ``i`` is node ``U[i]``, mapped
        through the ``_local_index`` scratch scatter); engine state is
        node-sized only.  Because ``U`` stays ascending, every draw
        happens at exactly the stream position the historical full-scan
        loop used -- bit-for-bit equivalence is preserved.

        Under active phase profiling the replay is attributed to the
        ``engine`` phase and result assembly to ``result_build``
        (self-time: the nested build span pauses the engine span).
        """
        from ..profiling import phase

        with phase("engine"):
            return self._run()

    def _run(self) -> ArrayRunResult:
        n = self.n
        if n == 0:
            return self._build_result()
        marking = self.algorithm in MARKING_ALGORITHMS

        inloop = np.ones(n, dtype=bool)
        live_cnt = self.live_cnt
        # Phase 0's frontier is the whole CSR: every node with an edge is
        # in the loop, and row i of ``dst`` is node i's neighborhood.
        df = self.arrays.dst
        U = np.arange(n, dtype=np.int64)
        local = self._local_index
        best = self._scratch.take("phase_best", n, np.int64)

        p = 0
        while True:
            r0 = 3 * p

            # Loop head: isolated-among-survivors nodes join and terminate
            # (their frontier rows are empty); then the phase budget is
            # checked (everyone still in the loop shares the same phase
            # count, so a ``max_phases`` exit empties the loop in one step,
            # matching the per-node protocol).
            iso_l = live_cnt[U] == 0
            if iso_l.any():
                idx = U[iso_l]
                self._decide(idx, True, r0)
                self.finish[idx] = r0
                inloop[idx] = False
                U = U[~iso_l]
            if self.max_phases is not None and p >= self.max_phases:
                self.finish[U] = r0  # gives up undecided
                inloop[U] = False
                U = U[:0]
            if not len(U):
                break
            # The rank baselines retire at least one node per phase (the
            # global top key always wins); the marking baselines make
            # progress only in probability, so their phase count is
            # unbounded, as in the generator engine.
            assert marking or p <= n, "rank baseline failed to make progress"

            nu = len(U)
            live_cnt_l = live_cnt[U]  # the frontier's row lengths
            if marking:
                marked_l = self._marked[:nu]
                self._draw_marks(U, live_cnt_l, marked_l)
            else:
                if self.algorithm == "luby" or p == 0:
                    self._draw_priorities(U)
            # Receivers in the local index space, mapped once per phase.
            if nu == n:  # U is every node: local ids are global ids
                ld = df
            else:
                local[U] = np.arange(nu, dtype=np.int32)
                ld = local[df]

            # Round A (3p) -- rank/mark exchange over the live sets.  Every
            # in-loop node has a nonempty live set, so all are tx; live
            # sets are symmetric, so each node hears as many reports as it
            # sends, and keeps them all.
            self._check_clock(r0, nu)
            self.msent[U] += live_cnt_l
            self.bits[U] += self._prio_bits[U] * live_cnt_l
            self.mrecv[U] += live_cnt_l
            # Contenders: reports that can veto a win -- every report for
            # the rank baselines, marked ones for the others.
            key_l = self._combined[U]
            best_l = best[:nu]
            best_l.fill(-1)
            if marking:
                np.maximum.at(
                    best_l,
                    ld[np.repeat(marked_l, live_cnt_l)],
                    np.repeat(key_l[marked_l], live_cnt_l[marked_l]),
                )
            else:
                np.maximum.at(best_l, ld, np.repeat(key_l, live_cnt_l))
            joined_l = key_l > best_l
            if marking:
                joined_l &= marked_l
            jidx = U[joined_l]
            if len(jidx):
                self._decide(jidx, True, r0 + 1)

            # Round B (3p + 1) -- JOIN announcements; winners terminate
            # after sending (they are still awake and receiving this round).
            # Every silent node that hears a JOIN is eliminated.
            self._check_clock(r0 + 1, nu)
            self.msent[jidx] += live_cnt_l[joined_l]
            self.bits[jidx] += _FLAG_BITS * live_cnt_l[joined_l]
            got_join = np.bincount(
                ld[np.repeat(joined_l, live_cnt_l)], minlength=nu
            )
            # Only the eliminated hear a JOIN (winners are never adjacent).
            silent_l = ~joined_l
            elim_l = silent_l & (got_join > 0)
            eidx = U[elim_l]
            if len(eidx):
                self.rx[eidx] += 1
                self.mrecv[eidx] += got_join[elim_l]
                self._decide(eidx, False, r0 + 2)
            self.finish[jidx] = r0 + 2
            inloop[jidx] = False

            # Round C (3p + 2) -- OUT announcements from the newly
            # eliminated to every silent neighbor (winners have
            # terminated); survivors drop the announcers from their live
            # sets, announcers terminate.
            self._check_clock(r0 + 2, nu - len(jidx))
            self.msent[eidx] += live_cnt_l[elim_l]
            self.bits[eidx] += _FLAG_BITS * live_cnt_l[elim_l]
            got_out = np.bincount(
                ld[np.repeat(elim_l, live_cnt_l)], minlength=nu
            )
            got_out[joined_l] = 0
            survivor_l = silent_l & ~elim_l
            self.rx[U[survivor_l & (got_out > 0)]] += 1
            # Announcers leave the loop, so every OUT shrinks a live set;
            # the OUTs a node hears are counted from its live count at
            # result build.
            live_cnt[U] -= got_out
            self.finish[eidx] = r0 + 3
            inloop[eidx] = False
            # Carry both frontiers to the survivors: keep their rows, then
            # the edges into survivors.  Masking preserves the ascending
            # order the draw positions depend on.
            df = df[np.repeat(survivor_l, live_cnt_l)]
            df = df[inloop[df]]
            U = U[survivor_l]
            if self.algorithm == "ghaffari":
                # Survivors re-rate their desire level from the round-A
                # reports of their surviving neighbors.
                self._update_desire(U, df)
            p += 1

        return self._build_result()

    # ------------------------------------------------------------------

    def _stat_columns(self) -> Dict[str, np.ndarray]:
        """The counters the phases never write, as fresh columns.

        A node is awake in every round until it finishes, so ``awake =
        finish`` and, for a decided node, ``awake_at_decision =
        decision_round`` (an undecided node has ``-1`` in both); those two
        are copies of engine state, made by the result build.  A node
        sends in round A of each phase it starts -- ``(finish + 1) // 3``
        of them -- and once more when it announces a ``JOIN`` (finishing
        at ``3p + 2``) or an ``OUT`` (eliminated); every other awake round
        is an ``rx`` or an ``idle`` one.  The ``OUT`` messages a node
        heard are the ones that shrank its live set: ``deg - live_cnt``.
        """
        finish = self.finish
        tx = (finish + 1) // 3
        tx += (finish % 3 == 2) | (self.in_mis == 0)
        idle = finish - tx
        idle -= self.rx
        mrecv = self.arrays.deg - self.live_cnt
        mrecv += self.mrecv
        return {
            "tx_rounds": tx,
            "idle_rounds": idle,
            "messages_received": mrecv,
            # Phased nodes never sleep.
            "sleep_rounds": np.zeros(self.n, dtype=np.int64),
        }

    def _build_result(self) -> ArrayRunResult:
        from ..profiling import phase

        with phase("result_build"):
            n = self.n
            return ArrayRunResult.from_columns(
                borrowed={
                    "in_mis": self.in_mis,
                    "awake_rounds": self.finish,
                    "rx_rounds": self.rx,
                    "messages_sent": self.msent,
                    "bits_sent": self.bits,
                    "decision_round": self.decision_round,
                    "awake_at_decision": self.decision_round,
                    "finish_round": self.finish,
                },
                fresh=self._stat_columns(),
                dtype=self.dtype_kind,
                n=n,
                rounds=int(self.finish.max()) if n else 0,
                seed=self.seed,
                node_ids=self.node_ids,
                arrays=self.arrays,
            )
