"""Array-backed run results: the struct-of-arrays view of one execution.

:class:`repro.sim.metrics.RunResult` materializes one
:class:`~repro.sim.metrics.NodeStats` dataclass per node.  That per-node
view is what analyses of *individual* nodes want, but a 10^5-node sweep
that only aggregates (mean awake rounds, total bits, MIS validity) pays
for ~10^5 Python objects per trial just to sum a few columns and throw
them away -- at n = 10^5 the dict build alone is a third of a vectorized
trial.  :class:`ArrayRunResult` keeps the same statistics as numpy
columns, with

* the paper's four complexity measures (and the message/bit/energy
  totals) computed by whole-array reductions -- integer-exact, so they
  equal the legacy properties bit for bit;
* MIS validity checkable in O(m) numpy passes against the attached
  :class:`~repro.graphs.csr.GraphArrays` (no adjacency dict);
* a **lazy legacy view**: ``result.node_stats`` / ``result.outputs`` /
  ``result.adjacency`` materialize the classic dictionaries on first
  access (cached), so code written against :class:`RunResult` keeps
  working -- it just pays the materialization cost only when it actually
  inspects per-node state.

It is the only result the vectorized engines build: each engine hands
its columns to :meth:`ArrayRunResult.from_columns`, the one place result
columns are copied out of engine scratch and narrowed.  The legacy view
of a vectorized trial is :meth:`ArrayRunResult.to_run_result`, called
once, by :func:`repro.sim.batch.run_planned_trial`; a generator-engine
trial goes the other way through :meth:`ArrayRunResult.from_run_result`.

``RESULT_KINDS`` names the choices accepted by ``result=`` everywhere
(:func:`repro.api.solve_mis`, the batch runner, sweeps, the CLI):
``"legacy"`` (the default for single runs), ``"arrays"``, and ``"auto"``
(arrays exactly when the trial runs on a vectorized engine -- what sweeps
use, since they only consume aggregates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional

import numpy as np

from .metrics import NodeStats, RunResult

#: Result-type choices accepted by ``result=`` throughout the package.
RESULT_KINDS = ("auto", "legacy", "arrays")

#: Column-dtype choices accepted by ``dtype=`` throughout the package.
#: ``"default"`` keeps the engines' native columns (int64, and the
#: round-label columns of :func:`label_dtype`) -- bit-for-bit identical
#: to every earlier release below int64's range.  ``"narrow"`` stores
#: each int64 column as int32 when its values fit, halving result memory
#: at 10^8 nodes.
DTYPE_KINDS = ("default", "narrow")

def label_dtype(rounds: int) -> Any:
    """The dtype of the round-label columns of a ``rounds``-round run.

    ``sleep_rounds``, ``decision_round`` and ``finish_round`` are int64
    while ``rounds`` fits int64.  Algorithm 1's labels grow like ``T(K) =
    3(2^K - 1)``, which passes ``2^63 - 1`` from ``K = 62`` (n beyond
    ~1.3x10^6); past that they are ``object`` columns of the exact Python
    ints.  The engines read such a column out of a small per-run table,
    so its nodes share a few thousand int objects and it still costs
    8 B per node.
    """
    return np.int64 if rounds <= np.iinfo(np.int64).max else object


def exact_sum(arr: np.ndarray) -> int:
    """Arbitrary-precision integer sum of an int column.

    Algorithm 1's :math:`\\Theta(n^3)` schedule puts ~2^51 in every
    finish/sleep cell at n = 10^5, so a straight int64 ``.sum()`` silently
    wraps past 2^63 -- the legacy view never hits this because Python ints
    are unbounded.  An ``object`` label column (:func:`label_dtype`)
    already holds Python ints and sums them directly.  For an integer
    column the guard costs a ``max`` and a ``min`` pass; only columns that
    can actually overflow take the exact path, two int64 sums of the high
    and the low 32-bit halves of each value (each half sums exactly for
    fewer than 2^31 values), combined as Python ints.
    """
    if arr.dtype == object:
        return sum(arr.tolist())
    if arr.size == 0:
        return 0
    peak = max(int(arr.max()), -int(arr.min()))
    if peak * arr.size < (1 << 62):
        return int(arr.sum())
    if arr.size < (1 << 31):
        high = int((arr >> 32).sum())
        low = int((arr & 0xFFFFFFFF).sum())
        return (high << 32) + low
    return sum(arr.tolist())


def validate_result_kind(result: str) -> str:
    """Return ``result`` if it names a known result kind, else raise."""
    if result not in RESULT_KINDS:
        raise ValueError(
            f"unknown result kind {result!r}; known: {RESULT_KINDS}"
        )
    return result


def resolve_dtype_kind(dtype: str) -> str:
    """Return ``dtype`` if it names a known dtype kind, else raise."""
    if dtype not in DTYPE_KINDS:
        raise ValueError(
            f"unknown result dtype {dtype!r}; known: {DTYPE_KINDS}"
        )
    return dtype


def narrow_column(column: np.ndarray) -> np.ndarray:
    """A copy of ``column`` in the smallest dtype holding it exactly.

    An int64 column narrows to int32 when its value range fits.  Every
    other column -- the int8 tri-state ``in_mis``, and the ``object``
    round labels past int64 (:func:`label_dtype`) -- is returned as a
    plain copy, so narrowing is never lossy.
    """
    if column.dtype == np.int64:
        info = np.iinfo(np.int32)
        if column.size == 0 or (
            info.min <= int(column.min()) and int(column.max()) <= info.max
        ):
            return column.astype(np.int32)
    return column.copy()


def result_column(column: np.ndarray, *, narrow: bool = False) -> np.ndarray:
    """A caller-owned copy of an engine state column.

    The engines' columns live in pooled :class:`EngineScratch` buffers
    that the next run will overwrite, so result assembly always copies;
    ``narrow=True`` additionally applies :func:`narrow_column`'s exact
    narrowing while it does.
    """
    if not narrow:
        return column.copy()
    return narrow_column(column)


def resolve_result_kind(result: str, resolved_engine: str) -> str:
    """Map a ``result=`` request to the concrete kind that will be built.

    ``"auto"`` picks ``"arrays"`` exactly when the trial runs on a
    vectorized engine (whose state already *is* the arrays) and
    ``"legacy"`` on the generator engine, where the per-node stats exist
    anyway and a conversion would only add work.
    """
    validate_result_kind(result)
    if result != "auto":
        return result
    return "arrays" if resolved_engine == "vectorized" else "legacy"


@dataclass(eq=False)
class ArrayRunResult:
    """Struct-of-arrays result of one execution (see module docstring).

    Column semantics match :class:`~repro.sim.metrics.NodeStats` field for
    field; positions follow ``node_ids`` (sorted node order, the engines'
    node indexing).  Sentinels: ``decision_round``/``awake_at_decision``
    use ``-1`` for "never decided" (``None`` in the legacy view),
    ``finish_round`` uses ``-1`` for "never finished", and ``in_mis`` is
    the engines' tri-state ``-1``/``0``/``1`` (undecided / out / in).
    """

    n: int
    rounds: int
    seed: Optional[int]
    #: node ids in sorted order; column position i belongs to node_ids[i].
    node_ids: List[Any]
    #: tri-state MIS membership (-1 undecided, 0 out, 1 in).
    in_mis: np.ndarray
    awake_rounds: np.ndarray
    sleep_rounds: np.ndarray
    tx_rounds: np.ndarray
    rx_rounds: np.ndarray
    idle_rounds: np.ndarray
    messages_sent: np.ndarray
    bits_sent: np.ndarray
    messages_received: np.ndarray
    decision_round: np.ndarray
    awake_at_decision: np.ndarray
    finish_round: np.ndarray
    #: the graph's array view, when the trial ran on one (enables O(m)
    #: numpy validation and the lazy adjacency view); ``None`` for results
    #: converted from a generator-engine run, which carry the dict instead.
    arrays: Optional[Any] = field(repr=False, default=None)
    _adjacency: Optional[Dict[Any, tuple]] = field(repr=False, default=None)
    _legacy: Optional[RunResult] = field(repr=False, default=None)

    # ------------------------------------------------------------------
    # The paper's four complexity measures -- integer-exact reductions,
    # bit-identical to the legacy RunResult properties.
    # ------------------------------------------------------------------

    @property
    def node_averaged_awake_complexity(self) -> float:
        """Mean awake rounds per node -- the paper's headline measure."""
        if not self.n:
            return 0.0
        return exact_sum(self.awake_rounds) / self.n

    @property
    def worst_case_awake_complexity(self) -> int:
        """Max awake rounds over all nodes."""
        if not self.n:
            return 0
        return int(self.awake_rounds.max())

    @property
    def worst_case_round_complexity(self) -> int:
        """Wall-clock rounds until the last node finished."""
        return self.rounds

    @property
    def node_averaged_round_complexity(self) -> float:
        """Mean wall-clock finish round over all nodes."""
        if not self.n:
            return 0.0
        finish = np.where(self.finish_round >= 0, self.finish_round, self.rounds)
        return exact_sum(finish) / self.n

    # ------------------------------------------------------------------
    # Message and decision statistics.
    # ------------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        """Total messages sent across all nodes."""
        return exact_sum(self.messages_sent)

    @property
    def total_bits(self) -> int:
        """Total payload bits sent across all nodes."""
        return exact_sum(self.bits_sent)

    @property
    def total_awake_rounds(self) -> int:
        """Sum of awake rounds over all nodes (the paper's total cost C)."""
        return exact_sum(self.awake_rounds)

    @property
    def node_averaged_decision_round(self) -> float:
        """Mean wall-clock round at which nodes decided their output."""
        if not self.n:
            return 0.0
        decided = np.where(
            self.decision_round >= 0, self.decision_round, self.rounds
        )
        return exact_sum(decided) / self.n

    @property
    def all_finished(self) -> bool:
        """Whether every node terminated."""
        return bool((self.finish_round >= 0).all()) if self.n else True

    # ------------------------------------------------------------------
    # MIS accessors.
    # ------------------------------------------------------------------

    @property
    def mis_mask(self) -> np.ndarray:
        """Boolean MIS-membership column, aligned with ``node_ids``."""
        return self.in_mis == 1

    @property
    def mis(self) -> FrozenSet[Any]:
        """The set of nodes whose output is ``True`` (MIS membership)."""
        ids = self.node_ids
        return frozenset(ids[i] for i in np.flatnonzero(self.in_mis == 1))

    @property
    def undecided(self) -> FrozenSet[Any]:
        """Nodes whose output is ``None`` (Monte Carlo failures)."""
        ids = self.node_ids
        return frozenset(ids[i] for i in np.flatnonzero(self.in_mis == -1))

    def is_valid_mis(self) -> bool:
        """Whether the output is a maximal independent set.

        Vectorized (reading only the members' CSR rows, O(n + sum of the
        members' degrees)) when the graph's
        :class:`~repro.graphs.csr.GraphArrays` rode along; falls back
        to the dict-based oracle otherwise.  Same verdict either way.
        Raises if no graph representation is attached at all -- an empty
        adjacency would validate any output vacuously.
        """
        if self.arrays is not None:
            from ..graphs.validation import is_maximal_independent_set_arrays

            return is_maximal_independent_set_arrays(self.arrays, self.mis_mask)
        if self._adjacency is None:
            raise ValueError(
                "cannot validate: this ArrayRunResult carries neither a "
                "GraphArrays view nor an adjacency mapping"
            )
        from ..graphs.validation import is_maximal_independent_set

        return is_maximal_independent_set(self.adjacency, self.mis)

    def summary(self) -> Dict[str, float]:
        """A flat dict of the headline measures, handy for tables and CSVs."""
        return {
            "n": self.n,
            "node_averaged_awake": self.node_averaged_awake_complexity,
            "worst_case_awake": self.worst_case_awake_complexity,
            "node_averaged_rounds": self.node_averaged_round_complexity,
            "worst_case_rounds": self.worst_case_round_complexity,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
        }

    # ------------------------------------------------------------------
    # The lazy legacy view.
    # ------------------------------------------------------------------

    def to_run_result(self) -> RunResult:
        """The legacy :class:`RunResult` view (materialized once, cached).

        ``.tolist()`` turns each column into Python numbers in one C pass,
        and the (plain, non-slots) :class:`NodeStats` dataclasses are
        built through ``__dict__``, skipping 13-kwarg ``__init__`` calls.
        Past int64 the round labels are ``object`` columns, whose
        ``.tolist()`` gives the exact Python ints the generator engine
        reports.
        """
        if self._legacy is not None:
            return self._legacy
        node_stats: Dict[Any, NodeStats] = {}
        outputs: Dict[Any, Optional[bool]] = {}
        cols = zip(
            self.node_ids,
            self.awake_rounds.tolist(),
            self.sleep_rounds.tolist(),
            self.tx_rounds.tolist(),
            self.rx_rounds.tolist(),
            self.idle_rounds.tolist(),
            self.messages_sent.tolist(),
            self.bits_sent.tolist(),
            self.messages_received.tolist(),
            self.decision_round.tolist(),
            self.awake_at_decision.tolist(),
            self.finish_round.tolist(),
            self.in_mis.tolist(),
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
                finish_round=fin if fin >= 0 else None,
                awake_at_finish=aw,
            )
            node_stats[v] = stats
            outputs[v] = None if mis == -1 else bool(mis)
        self._legacy = RunResult(
            n=self.n,
            rounds=self.rounds,
            seed=self.seed,
            node_stats=node_stats,
            outputs=outputs,
            protocols={},
            adjacency=self.adjacency,
        )
        return self._legacy

    @property
    def adjacency(self) -> Dict[Any, tuple]:
        """The graph as an adjacency mapping (lazy when arrays-backed)."""
        if self._adjacency is not None:
            return self._adjacency
        if self.arrays is not None:
            return self.arrays.adjacency
        return {}

    @property
    def node_stats(self) -> Dict[Any, Any]:
        """Per-node :class:`NodeStats`, materialized on first access."""
        return self.to_run_result().node_stats

    @property
    def outputs(self) -> Dict[Any, Optional[bool]]:
        """Per-node protocol outputs, materialized on first access."""
        return self.to_run_result().outputs

    @property
    def protocols(self) -> Dict[Any, Any]:
        """Protocol instances, when the trial actually produced them.

        Engine-built array results have none (the vectorized engines keep
        no per-call instrumentation); results converted from a
        generator-engine run delegate to the cached legacy view, so the
        conversion stays lossless.
        """
        if self._legacy is not None:
            return self._legacy.protocols
        return {}

    # ------------------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        *,
        borrowed: Mapping[str, np.ndarray],
        fresh: Mapping[str, np.ndarray],
        dtype: str = "default",
        **fields: Any,
    ) -> "ArrayRunResult":
        """Build a result from its columns -- the one narrowing policy.

        ``borrowed`` columns still belong to the caller (the engines'
        pooled :class:`EngineScratch` buffers, which the next run
        overwrites) and are copied; ``fresh`` ones were made for this
        result and are kept as they are.  Under ``dtype="narrow"`` every
        column is narrowed (:func:`narrow_column`), which copies anyway.
        ``fields`` are the remaining dataclass fields (``n``, ``rounds``,
        ``seed``, ``node_ids``, ...).
        """
        narrow = resolve_dtype_kind(dtype) == "narrow"
        columns = {
            name: result_column(column, narrow=narrow)
            for name, column in borrowed.items()
        }
        for name, column in fresh.items():
            columns[name] = narrow_column(column) if narrow else column
        return cls(**fields, **columns)

    @classmethod
    def from_run_result(
        cls, result: RunResult, dtype: str = "default"
    ) -> "ArrayRunResult":
        """Pack a legacy :class:`RunResult` into the array view.

        Used when ``result="arrays"`` is requested but the trial ran on
        the generator engine.  The original result is kept as the cached
        legacy view, so converting is lossless and round-trip free.
        Columns follow the vectorized engines' dtype rule: the round-label
        columns (``sleep_rounds``, ``decision_round``, ``finish_round``)
        take :func:`label_dtype` of ``result.rounds``, every other column
        is int64; ``dtype="narrow"`` then narrows as the engines do
        (:meth:`from_columns`).
        """
        node_ids = sorted(result.node_stats)
        cols: Dict[str, list] = {name: [] for name in _STAT_COLUMNS}
        in_mis = []
        for v in node_ids:
            s = result.node_stats[v]
            cols["awake_rounds"].append(s.awake_rounds)
            cols["sleep_rounds"].append(s.sleep_rounds)
            cols["tx_rounds"].append(s.tx_rounds)
            cols["rx_rounds"].append(s.rx_rounds)
            cols["idle_rounds"].append(s.idle_rounds)
            cols["messages_sent"].append(s.messages_sent)
            cols["bits_sent"].append(s.bits_sent)
            cols["messages_received"].append(s.messages_received)
            cols["decision_round"].append(
                s.decision_round if s.decision_round is not None else -1
            )
            cols["awake_at_decision"].append(
                s.awake_at_decision if s.awake_at_decision is not None else -1
            )
            cols["finish_round"].append(
                s.finish_round if s.finish_round is not None else -1
            )
            out = result.outputs.get(v)
            in_mis.append(-1 if out is None else int(bool(out)))
        labels = label_dtype(result.rounds)
        return cls.from_columns(
            borrowed={},
            fresh={
                name: np.asarray(
                    col, dtype=labels if name in _ROUND_COLUMNS else np.int64
                )
                for name, col in cols.items()
            },
            dtype=dtype,
            n=result.n,
            rounds=result.rounds,
            seed=result.seed,
            node_ids=node_ids,
            in_mis=np.asarray(in_mis, dtype=np.int8),
            arrays=None,
            _adjacency=result.adjacency,
            _legacy=result,
        )


_STAT_COLUMNS = (
    "awake_rounds",
    "sleep_rounds",
    "tx_rounds",
    "rx_rounds",
    "idle_rounds",
    "messages_sent",
    "bits_sent",
    "messages_received",
    "decision_round",
    "awake_at_decision",
    "finish_round",
)

#: The round-label columns, whose dtype is :func:`label_dtype`.
_ROUND_COLUMNS = ("sleep_rounds", "decision_round", "finish_round")
