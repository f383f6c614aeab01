"""Vectorized lockstep engine for the phase-based MIS baselines.

All four traditional-model baselines -- Luby, distributed randomized
greedy (:mod:`repro.baselines.luby` / :mod:`repro.baselines.dist_greedy`,
built on :class:`repro.baselines._phased.PhasedMISProtocol`), Ghaffari's
desire-level algorithm (:mod:`repro.baselines.ghaffari`), and
Alon--Babai--Itai (:mod:`repro.baselines.abi`) -- are round-synchronous:
nodes never sleep, every live node is in the same three-round phase at the
same time, and termination is the only way out.  That lockstep structure
is what this engine exploits: it runs the phase loop of
:mod:`repro.sim.phase_loop` -- one numpy pass over the live edges per
round, instead of one Python generator step per node -- once over the
whole graph, phase ``p`` occupying rounds ``3p`` (rank/mark exchange),
``3p + 1`` (``JOIN`` announcements) and ``3p + 2`` (``OUT``
announcements).

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
arithmetic* on both engines (see
:meth:`repro.sim.phase_loop.PhaseLoop._update_desire`), so equivalence
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
count is an in-loop degree.  Algorithm 2's greedy base case keeps its live
sets the same way, and its window exit also removes all in-loop nodes at
once, so it runs on the same phase loop, as the ``greedy`` policy.

Counters
--------
The phases record only what a node's finish round cannot give: ``rx``
(the round a node hears a ``JOIN`` and is eliminated, and each round a
survivor hears an ``OUT``), messages and bits sent, and the receipts of
round A and of the ``JOIN`` that eliminates a node.  Everything else is
derived at result build (:meth:`PhasedVectorizedEngine._stat_columns`):
nodes never sleep, so ``awake = finish``; a decided node decided as it
finished, or one round earlier if it announced a ``JOIN`` or ``OUT``, and
its ``awake_at_decision`` is that decision round; a node sends in round A
of each phase it starts, ``(finish + 1) // 3`` of them, plus its
announcement; its other awake rounds are idle; and the ``OUT`` messages it
heard are exactly the ones that shrank its live count, ``deg - live_cnt``
at exit.  The phases count those ``OUT`` messages by complement: every
in-loop neighbor of a silent node joined, was eliminated, or survives, so
its ``OUT`` count is its live count less the ``JOIN`` messages and
surviving neighbors it has -- and the surviving neighbors come from the
one pass over the survivors' rows that also carries the frontier to the
next phase.

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
from .fast_engine import EngineScratch, PHASED_ALGORITHMS
from .phase_loop import MARKING_ALGORITHMS, PhaseLoop, announced
from .rng import DEFAULT_STREAM, node_rng_bulk, stream_key, validate_stream


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

        scratch = scratch if scratch is not None else EngineScratch()
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
        # ``tx``, ``idle``, ``awake_at_decision`` and the decision round
        # follow from these at result build (see _build_result).  The phase
        # loop writes ``finish``, ``live_cnt`` and the priority state of
        # every node before it reads them, so they are not filled.
        self.in_mis = scratch.take("in_mis", n, np.int8, fill=-1)
        self.rx = scratch.take("rx", n, np.int64, fill=0)
        self.msent = scratch.take("msent", n, np.int64, fill=0)
        self.bits = scratch.take("bits", n, np.int64, fill=0)
        self.mrecv = scratch.take("mrecv", n, np.int64, fill=0)
        self.decision_round = scratch.take("decision_round", n, np.int64)
        self.finish = scratch.take("finish", n, np.int64)
        # In-loop degree == live-set size (the live-set invariant); at
        # exit, ``deg - live_cnt`` is how many OUTs a node heard.
        self.live_cnt = scratch.take("live_cnt", n, np.int64)
        # Priority state (see PhaseLoop): ghaffari's combined key is the
        # constant 0.
        self._combined = scratch.take(
            "combined", n, np.int64,
            fill=0 if algorithm == "ghaffari" else None,
        )
        self._prio_bits = scratch.take("prio_bits", n, np.int64)
        if algorithm in MARKING_ALGORITHMS:
            self._marked = scratch.take("marked", n, bool)
        if algorithm == "ghaffari":
            # Desire level p_v = 2 ** -exponent, initially 1/2.
            self._exponent = scratch.take("exponent", n, np.int64, fill=1)
        # Global-to-local map for the phase loop's node frontier
        # (set-before-use only: each phase writes its own frontier
        # before reading, so stale entries are never observed).
        self._local_index = scratch.take("local_index", n, np.int32)
        self._phases = PhaseLoop(self, algorithm, max_rounds=max_rounds)

    # ------------------------------------------------------------------

    @property
    def adjacency(self):
        """The adjacency dict view (lazy for array-native graphs)."""
        return self.arrays.adjacency

    def run(self) -> ArrayRunResult:
        """Replay the full execution and return the generator-equal result.

        One run of the phase loop (:meth:`PhaseLoop.run`) over the whole
        graph.  Under active phase profiling the replay is attributed to the
        ``engine`` phase and result assembly to ``result_build``
        (self-time: the nested build span pauses the engine span).
        """
        from ..profiling import phase

        with phase("engine"):
            if self.n:
                self._phases.run(
                    np.arange(self.n, dtype=np.int64),
                    self.arrays.deg,
                    self.arrays.dst,
                    self.max_phases,
                )
            return self._build_result()

    # ------------------------------------------------------------------

    def _stat_columns(self, sent_last: np.ndarray) -> Dict[str, np.ndarray]:
        """The counters the phases never write, as fresh columns.

        A node is awake in every round until it finishes, so ``awake =
        finish`` and, for a decided node, ``awake_at_decision =
        decision_round`` (an undecided node has ``-1`` in both); those two
        are copies of engine state, made by the result build.  A node
        sends in round A of each phase it starts -- ``(finish + 1) // 3``
        of them -- and once more when it announces a ``JOIN`` or an
        ``OUT`` (``sent_last``, see :func:`announced`); every other awake
        round is an ``rx`` or an ``idle`` one.  The ``OUT`` messages a node
        heard are the ones that shrank its live set: ``deg - live_cnt``.
        """
        finish = self.finish
        tx = (finish + 1) // 3
        tx += sent_last
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
            # A decided node decided as it finished, or one round before
            # if it announced its decision.
            sent_last = announced(self.finish, self.in_mis)
            np.subtract(self.finish, sent_last, out=self.decision_round)
            self.decision_round[self.in_mis == -1] = -1
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
                fresh=self._stat_columns(sent_last),
                dtype=self.dtype_kind,
                n=n,
                rounds=int(self.finish.max()) if n else 0,
                seed=self.seed,
                node_ids=self.node_ids,
                arrays=self.arrays,
            )
