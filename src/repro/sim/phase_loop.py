"""The numpy rank/JOIN/OUT phase loop of both vectorized engines.

The phased engine (:mod:`repro.sim.fast_phased`) runs it once over the
whole graph; Algorithm 2's greedy base case
(:meth:`repro.sim.fast_engine.VectorizedEngine._base_case`) runs it on a
large base call under the ``greedy`` policy, capped at the window.  Phase
``p`` occupies rounds ``3p``, ``3p + 1`` and ``3p + 2``, counted from the
loop's start.  Live sets are never stored: by the live-set invariant
(:mod:`repro.sim.fast_phased`) a phase's deliveries are the edges between
in-loop nodes and a live count is an in-loop degree.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from .errors import MaxRoundsExceededError
from .rng import (
    bit_length_u64,
    draw_u64_array,
    randbelow,
    u64_mod_bound,
    u64_to_unit_float,
)

#: The phased baselines whose phase draws a marking *coin* (compared
#: against an algorithm-specific probability) instead of a rank.
MARKING_ALGORITHMS = ("ghaffari", "abi")

#: Bit cost of the tri-state announcements (``None``/``True``/``False`` all
#: encode to 2 bits under :func:`repro.sim.messages.payload_bits`).
_FLAG_BITS = 2

#: Payload framing bits of a ``(flag, small-int)`` round-A message:
#: bool tag (2) + int tag/sign (2) + tuple framing (4 per element).
_MARK_FRAME_BITS = 12

#: Entries per row block of the loop's edge passes (:func:`row_blocks`):
#: every per-edge transient of a phase (masks, keys, receiver ids) is at
#: most a block's worth, ~25 MB, however many edges the graph has.
EDGE_BLOCK = 1 << 20

#: Array length from which :func:`_select` switches to ``np.compress``.
_COMPRESS_MIN = 2048


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


def announced(finish: np.ndarray, in_mis: np.ndarray) -> np.ndarray:
    """Which nodes sent a ``JOIN`` or an ``OUT`` before they finished.

    A winner finishes after its ``JOIN`` round, at ``3p + 2``; an
    eliminated node after its ``OUT`` round.  Each decided one round
    before it finished, and an isolated node as it finished, so a decided
    node's decision round is ``finish - announced``.
    """
    return (finish % 3 == 2) | (in_mis == 0)


class PhaseLoop:
    """The phase loop under one priority policy, on one engine's arrays.

    ``policy`` is a phased baseline's name.  ``state`` is the engine whose
    node-indexed arrays the loop uses: the stream state ``_rngs``/
    ``_key``/``_ctr``; ``in_mis``; ``finish`` (finish rounds); ``rx``,
    ``msent``, ``bits`` and ``mrecv``, which it adds to; ``live_cnt``,
    left at each node's exit value; the priority state ``_combined`` and
    ``_prio_bits`` (plus ``_marked`` when marking, ``_exponent`` for
    ghaffari); and the ``_local_index`` map.  A run writes these at its
    participants before reading them, so it costs its own size and they
    need no fill between runs.  Decision rounds follow from the finish
    rounds (:func:`announced`).
    """

    def __init__(
        self, state: Any, policy: str, *, max_rounds: Optional[int] = None
    ):
        self.policy, self.max_rounds = policy, max_rounds
        self.n = n = state.n
        self.arrays = state.arrays
        self.rngs, self.key, self.ctr = state._rngs, state._key, state._ctr
        self.in_mis, self.finish = state.in_mis, state.finish
        self.live_cnt, self.local = state.live_cnt, state._local_index
        self.rx, self.msent = state.rx, state.msent
        self.bits, self.mrecv = state.bits, state.mrecv
        # Combined keys: dense rank * n + index for the rank policies,
        # degree * n + index for abi, constant 0 for ghaffari -- any
        # marked neighbor vetoes a ghaffari win, which is exactly "never
        # strictly above another contender's key".
        self.combined, self.prio_bits = state._combined, state._prio_bits
        if policy in MARKING_ALGORITHMS:
            self.marked = state._marked
        if policy == "ghaffari":
            self.exponent = state._exponent
        # Luby redraws from [0, n^4] every phase; greedy draws one
        # permanent rank from [0, n^6] (matching the protocol classes).
        self.bound = n**4 + 1 if policy == "luby" else n**6 + 1

    def _check_clock(self, round_: int, live: int) -> None:
        if self.max_rounds is not None and round_ > self.max_rounds and live:
            raise MaxRoundsExceededError(self.max_rounds, live)

    def _decide(self, idx: np.ndarray, value: bool) -> None:
        assert (self.in_mis[idx] == -1).all(), "re-deciding a node"
        self.in_mis[idx] = 1 if value else 0

    def _draw_priorities(self, U: np.ndarray) -> None:
        """Fill combined keys + payload bits for the nodes ``U``.

        One draw per node, at the same stream position the generator
        engine's protocol would use (see :func:`draw_dense_ranks`).
        ``(value, id)`` tuple order equals ``rank * n + index`` order
        because dense ranks preserve value order and index order is id
        order.
        """
        dense, raw_bits = draw_dense_ranks(
            self.rngs, self.key, self.ctr, U, self.bound
        )
        self.combined[U] = dense * self.n + U
        self.prio_bits[U] = raw_bits + self.arrays.id_bits[U] + 10

    def _draw_unit_floats(self, U: np.ndarray) -> np.ndarray:
        """One ``random()`` draw per node of ``U``, on either stream.

        v1: one ``Random.random()`` per node, in ``U`` order -- the
        generator engine's stream positions.  v2: a whole-array draw at
        each node's counter (then advanced), mapped to [0, 1) exactly as
        :meth:`repro.sim.rng.CounterRNG.random` does.
        """
        if self.rngs is not None:
            return np.fromiter(
                (self.rngs[i].random() for i in U.tolist()),
                dtype=np.float64,
                count=len(U),
            )
        u = draw_u64_array(self.key, U, self.ctr[U])
        self.ctr[U] += 1
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
        if self.policy == "ghaffari":
            payload_val = self.exponent[U]
            # ldexp(1, -e) is the exact IEEE value of python's 2.0**-e
            # (ldexp's exponent operand is int32 on every platform).
            threshold = np.ldexp(
                1.0, -np.minimum(payload_val, 2000).astype(np.int32)
            )
        else:
            payload_val = live_cnt_l
            threshold = 1.0 / (2.0 * payload_val.astype(np.float64))
            self.combined[U] = payload_val * self.n + U
        self.prio_bits[U] = (
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
        one row of ``live_cnt[v]`` entries per survivor ``v`` in ``U``
        order, whose receivers are slots among the survivors with a
        nonempty row (slot ``i`` is the ``i``-th of them).  The rows are
        read in row blocks (:func:`row_blocks`), so the update costs
        O(frontier), never O(n), and its per-edge transients O(block).
        The comparison is computed in exact integer arithmetic --
        ``sum(2^(E - e_u)) >= 2^(E+1)`` with ``E`` the largest exponent
        among them -- matching the protocol's exact-shift implementation
        independent of any summation order.  The int64 fast path covers
        every exponent range a real run produces; pathological spreads
        (possible only after ~50+ adversarial phases) fall back to
        per-receiver Python big-int sums, still exact.
        """
        high_l = np.zeros(len(U), dtype=bool)
        if len(df):
            cnt_l = self.live_cnt[U]
            has_l = cnt_l > 0  # the rest have no surviving neighbor
            cnt_l = cnt_l[has_l]
            exp_l = self.exponent[U[has_l]]
            cap = int(exp_l.max())
            blocks = row_blocks(cnt_l, len(df))
            spread = cap - int(exp_l.min())
            if cap + 1 <= 62 and spread + self.n.bit_length() <= 62:
                # Each sender's term 2^(E - e_u), once per node, not per edge.
                term_l = np.int64(1) << (np.int64(cap) - exp_l)
                acc = np.zeros(len(cnt_l), dtype=np.int64)
                for b0, b1, e0, e1 in blocks:
                    np.add.at(
                        acc, df[e0:e1], term_l[b0:b1].repeat(cnt_l[b0:b1])
                    )
                high_l[has_l] = acc >= np.int64(1) << np.int64(cap + 1)
            else:  # pragma: no cover - adversarial exponent spreads
                grouped: dict = {}
                for b0, b1, e0, e1 in blocks:
                    heads = df[e0:e1].tolist()
                    exps = exp_l[b0:b1].repeat(cnt_l[b0:b1]).tolist()
                    for v, e in zip(heads, exps):
                        grouped.setdefault(v, []).append(e)
                high_v = np.zeros(len(cnt_l), dtype=bool)
                for v, group in grouped.items():
                    top = max(group)
                    total = sum(1 << (top - e) for e in group)
                    high_v[v] = total >= 1 << (top + 1)
                high_l[has_l] = high_v
        self.exponent[U[high_l]] += 1
        lowered = U[~high_l]
        self.exponent[lowered] = np.maximum(
            1, self.exponent[lowered] - 1
        )

    def run(
        self, U: np.ndarray, deg_in: np.ndarray, de: np.ndarray,
        max_phases: Optional[int] = None,
    ) -> None:
        """Run the participants ``U`` until each one finishes.

        ``U`` holds ascending node indices and ``(deg_in, de)`` their rows
        of ``G[U]``: ``de`` concatenates, for each node of ``U`` in order,
        its ``deg_in[i]`` neighbors inside ``U``.  After ``max_phases``
        phases the nodes still in the loop finish undecided.

        The loop walks a **shrinking edge frontier** ``df`` -- the
        receivers of the edges between in-loop nodes, one row of
        ``live_cnt`` entries per node of ``U`` in order -- and after each
        phase keeps, in the survivors' rows, the edges into survivors, so
        a late phase touches only its own few edges and nodes.  Rows are
        laid out by sender, so every sender-side quantity (a winner's
        ``JOIN``, a round-A key) reaches its edges by one ``repeat``,
        never a gather.  Receivers are held as slots of ``U`` (slot ``i``
        is node ``U[i]``), where they are aggregated: phase 0's frontier
        is ``de``, read in place when ``U`` is every node and mapped
        through the ``_local_index`` map otherwise, and every later
        frontier is renumbered once, as the phase before carries it.
        Every edge pass walks the frontier in row blocks
        (:func:`row_blocks`), so beyond the carried frontier no per-edge
        transient outgrows a block.  ``U`` stays ascending, so every draw
        happens at the generator engine's stream position.
        """
        n = self.n
        marking = self.policy in MARKING_ALGORITHMS
        live_cnt, finish, local = self.live_cnt, self.finish, self.local
        if len(U) == n:  # U is every node: local ids are global ids
            live_cnt[:] = deg_in
        else:
            live_cnt[U] = deg_in
        if self.policy == "greedy":
            # One permanent rank per participant, drawn up front as the
            # base case's discovery round does: a node the window stops
            # before phase 0 has still used its draw.  (The phased greedy
            # protocol skips isolated nodes, which never compare a rank
            # nor draw again.)
            self._draw_priorities(U)
        df = de
        owned = False  # whether df is the loop's own buffer (not de)

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
                self._decide(idx, True)
                finish[idx] = r0
                U = U[~iso_l]
            if max_phases is not None and p >= max_phases:
                finish[U] = r0  # gives up undecided
                U = U[:0]
            if not len(U):
                return
            # The rank policies retire at least one node per phase (the
            # top key always wins); the marking policies make progress
            # only in probability, so their phase count is unbounded, as
            # in the generator engine.
            assert marking or p <= n, "rank policy failed to make progress"

            nu = len(U)
            live_cnt_l = live_cnt[U]  # the frontier's row lengths
            if marking:
                marked_l = self.marked[:nu]
                self._draw_marks(U, live_cnt_l, marked_l)
            elif self.policy == "luby":
                self._draw_priorities(U)
            blocks = row_blocks(live_cnt_l, len(df))
            if p == 0 and nu < n:
                # de's receivers are node ids: map them to slots, into the
                # loop's own frontier (a carried one holds slots already).
                local[U] = np.arange(nu, dtype=np.int32)
                df, owned = local[df], True

            # Round A (3p) -- rank/mark exchange over the live sets.  Every
            # in-loop node has a nonempty live set, so all are tx; live
            # sets are symmetric, so each node hears as many reports as it
            # sends, and keeps them all.
            self._check_clock(r0, nu)
            self.msent[U] += live_cnt_l
            self.bits[U] += self.prio_bits[U] * live_cnt_l
            self.mrecv[U] += live_cnt_l
            # Contenders: reports that can veto a win -- every report for
            # the rank policies, marked ones for the others.
            key_l = self.combined[U]
            best_l = np.full(nu, -1, dtype=np.int64)
            for b0, b1, e0, e1 in blocks:
                cnt, key = live_cnt_l[b0:b1], key_l[b0:b1]
                if marking:
                    sent = marked_l[b0:b1]
                    ld = df[e0:e1][sent.repeat(cnt)]
                    key = key[sent].repeat(cnt[sent])
                else:
                    ld = df[e0:e1]
                    key = key.repeat(cnt)
                np.maximum.at(best_l, ld, key)
                del ld, key  # one block's transients at a time
            joined_l = key_l > best_l
            if marking:
                joined_l &= marked_l
            jidx = _select(U, joined_l)
            if len(jidx):
                self._decide(jidx, True)

            # Round B (3p + 1) -- JOIN announcements; winners terminate
            # after sending (they are still awake and receiving this round).
            # Every silent node that hears a JOIN is eliminated.
            self._check_clock(r0 + 1, nu)
            join_cnt = live_cnt_l[joined_l]
            self.msent[jidx] += join_cnt
            self.bits[jidx] += _FLAG_BITS * join_cnt
            got_join = _count_receivers(df, blocks, joined_l, live_cnt_l)
            # Only the eliminated hear a JOIN (winners are never adjacent).
            silent_l = ~joined_l
            elim_l = silent_l & (got_join > 0)
            eidx = _select(U, elim_l)
            if len(eidx):
                self.rx[eidx] += 1
                self.mrecv[eidx] += got_join[elim_l]
                self._decide(eidx, False)
            finish[jidx] = r0 + 2

            # Round C (3p + 2) -- OUT announcements from the newly
            # eliminated to every silent neighbor (winners have
            # terminated); survivors drop the announcers from their live
            # sets, announcers terminate.
            self._check_clock(r0 + 2, nu - len(jidx))
            elim_cnt = live_cnt_l[elim_l]
            self.msent[eidx] += elim_cnt
            self.bits[eidx] += _FLAG_BITS * elim_cnt
            # Every in-loop neighbor of a silent node joined, was
            # eliminated, or survives (the live-set invariant), so its OUTs
            # are counted by complement, from the surviving neighbors that
            # the carry below counts.  Winners hear none.
            survivor_l = silent_l & ~elim_l
            # Carry the frontier in one pass over the survivors' rows: keep
            # the edges into survivors (every receiver was in the loop, so
            # it stays exactly when its slot survived), and count each
            # node's surviving neighbors from the same receivers.  One
            # block's kept edges are the next frontier.  Blocks gather
            # theirs in a buffer: a fresh one sized for the survivors' rows
            # while the frontier is de itself, else the loop's own,
            # compacted in place, as no block writes past what it has
            # read.  Masking keeps the ascending order the draws depend on.
            many = len(blocks) > 1
            if many:
                nxt = df if owned else np.empty(
                    int(live_cnt_l[survivor_l].sum()), dtype=df.dtype
                )
            # When nearly every node survives, a keep mask is long runs of
            # True, which boolean indexing copies fastest (see _select).
            most_survive = 10 * np.count_nonzero(survivor_l) >= 9 * nu
            got_surv = None
            w = 0
            for b0, b1, e0, e1 in blocks:
                sent = survivor_l[b0:b1].repeat(live_cnt_l[b0:b1])
                lr = df[e0:e1][sent]
                del sent  # bincount copies lr to intp: hold less meanwhile
                counts = np.bincount(lr, minlength=nu)
                if got_surv is None:
                    got_surv = counts
                else:
                    got_surv += counts
                keep = survivor_l[lr]
                kept = lr[keep] if most_survive else _select(lr, keep)
                if many:
                    nxt[w : w + len(kept)] = kept
                else:
                    nxt = kept
                w += len(kept)
                del lr, counts, keep, kept  # one block's at a time
            # The next phase's slots are the survivors with a surviving
            # neighbor: the rest are isolated at its head and leave before
            # it reads the frontier, which never names them.
            slot = (survivor_l & (got_surv > 0)).cumsum(dtype=df.dtype)
            slot -= 1
            df, owned = nxt[:w], True
            del nxt  # this phase's frontier is gone: renumber the next
            if many:
                for a in range(0, w, EDGE_BLOCK):
                    seg = df[a : a + EDGE_BLOCK]
                    seg[...] = slot[seg]
            else:
                df = slot[df]
            got_out = live_cnt_l - got_join
            got_out -= got_surv
            got_out[joined_l] = 0
            self.rx[U[survivor_l & (got_out > 0)]] += 1
            # Announcers leave the loop, so every OUT shrinks a live set;
            # the OUTs a node hears are counted from its live count at
            # exit.
            live_cnt[U] -= got_out
            finish[eidx] = r0 + 3
            U = _select(U, survivor_l)
            if self.policy == "ghaffari":
                # Survivors re-rate their desire level from the round-A
                # reports of their surviving neighbors.
                self._update_desire(U, df)
            p += 1


def row_blocks(
    cnt_l: np.ndarray, total: int
) -> List[Tuple[int, int, int, int]]:
    """Split a frontier of ``total`` entries, in rows of ``cnt_l``
    entries, into blocks of about :data:`EDGE_BLOCK` entries.

    Each block ``(b0, b1, e0, e1)`` is the run of rows ``b0:b1``, whose
    entries are ``e0:e1`` of the frontier; a row longer than a block
    gets a block to itself.  A frontier that fits in one block is one
    block, so its passes do the work of unblocked ones.
    """
    nu = len(cnt_l)
    if total <= EDGE_BLOCK:
        return [(0, nu, 0, total)]
    ends = np.cumsum(cnt_l)
    blocks = []
    b0 = e0 = 0
    while b0 < nu:
        b1 = max(int(np.searchsorted(ends, e0 + EDGE_BLOCK, "right")), b0 + 1)
        e1 = int(ends[b1 - 1])
        blocks.append((b0, b1, e0, e1))
        b0, e0 = b1, e1
    return blocks


def _count_receivers(
    df: np.ndarray,
    blocks: List[Tuple[int, int, int, int]],
    senders_l: np.ndarray,
    cnt_l: np.ndarray,
) -> np.ndarray:
    """The entries of the senders' rows of the frontier ``df`` that reach
    each in-loop node, by local slot: what a one-round broadcast from the
    ``senders_l`` delivers to each receiver."""
    counts = None
    for b0, b1, e0, e1 in blocks:
        rows = df[e0:e1][senders_l[b0:b1].repeat(cnt_l[b0:b1])]
        block = np.bincount(rows, minlength=len(cnt_l))
        if counts is None:
            counts = block
        else:
            counts += block
    return counts


def _select(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values[mask]``, for a mask with no long runs.

    Boolean indexing branches on every element, which a random mask
    mispredicts about half the time; ``np.compress`` lists the kept
    positions first and then gathers them, a few times faster on large
    arrays.  On small ones its fixed cost is the larger, so they keep
    boolean indexing.
    """
    if len(mask) < _COMPRESS_MIN:
        return values[mask]
    return np.compress(mask, values)
