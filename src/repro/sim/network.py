"""The synchronous sleeping-model network simulator.

This is the paper's model (Section 1.2) made executable:

* time proceeds in synchronous rounds ``0, 1, 2, ...``;
* in each round every **awake** node sends (possibly distinct) messages to
  its neighbors and receives the messages sent to it this round by awake
  neighbors;
* messages addressed to **sleeping** or **terminated** nodes are dropped --
  the algorithms rely on this to detect which neighbors participate in the
  current recursive call;
* a sleeping node pays no cost; the wall clock still advances.

Fast-forwarding: when *no* node is awake (which happens whenever an entire
subtree of the recursion is empty and everyone sleeps through its time
window), the simulator jumps the clock straight to the earliest wake-up.
This makes simulating Algorithm 1's :math:`\\Theta(n^3)` wall-clock schedule
cost only ``O(total awake work + wake events)`` real compute while keeping
every reported round count exact.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from .actions import SendAndReceive
from .context import NodeContext
from .errors import (
    CongestViolationError,
    MaxRoundsExceededError,
    ProtocolError,
)
from .messages import payload_bits
from .metrics import NodeStats, RunResult
from .node import NodeRuntime, NodeState
from .protocol import Protocol
from .rng import (
    DEFAULT_STREAM,
    make_node_rng,
    node_rng,  # noqa: F401 (re-exported)
)
from .trace import NULL_TRACE, Trace


class NormalizedAdjacency(dict):
    """Marker type for :func:`normalize_graph` output.

    A plain ``{node: sorted tuple of neighbors}`` dict, tagged so that
    re-normalizing is a no-op: the batch runner normalizes once and every
    downstream consumer (``Simulator``, ``GraphArrays``) recognizes the
    result instead of re-walking the edge set.
    """

    __slots__ = ()


def normalize_graph(graph: Any) -> Dict[int, Tuple[int, ...]]:
    """Return a ``{node: sorted tuple of neighbors}`` adjacency mapping.

    Accepts a ``networkx.Graph``, any mapping from node to an iterable of
    neighbors, or an object exposing an already-normalized ``adjacency``
    view (a :class:`repro.graphs.csr.GraphArrays`, whose lazy dict is
    materialized here exactly when a dict consumer needs it).  Self-loops
    are dropped; the neighbor relation is symmetrized.  Output that is
    already normalized (a :class:`NormalizedAdjacency`) passes through
    unchanged.
    """
    if isinstance(graph, NormalizedAdjacency):
        return graph
    attr = getattr(graph, "adjacency", None)
    if isinstance(attr, NormalizedAdjacency):  # GraphArrays and friends
        return attr
    if hasattr(graph, "adj") and hasattr(graph, "nodes"):
        raw: Mapping[Any, Iterable[Any]] = {
            v: list(graph.adj[v]) for v in graph.nodes()
        }
    elif isinstance(graph, Mapping):
        raw = graph
    else:
        raise TypeError(
            f"graph must be a networkx.Graph or adjacency mapping, "
            f"got {type(graph).__name__}"
        )
    adjacency: Dict[Any, set] = {v: set() for v in raw}
    for v, neighbors in raw.items():
        for u in neighbors:
            if u == v:
                continue
            if u not in adjacency:
                raise ValueError(f"neighbor {u!r} of {v!r} is not a node")
            adjacency[v].add(u)
            adjacency[u].add(v)
    return NormalizedAdjacency(
        (v, tuple(sorted(nbrs))) for v, nbrs in adjacency.items()
    )


class Simulator:
    """Run one protocol instance per node over a graph.

    Parameters
    ----------
    graph:
        ``networkx.Graph`` or adjacency mapping.
    protocol_factory:
        Callable ``node_id -> Protocol`` building each node's protocol.
    seed:
        Master seed; node ``v`` gets an independent stream derived from
        ``(seed, v)``.
    congest_bit_limit:
        If set, every message payload is size-checked against this bit
        budget and :class:`CongestViolationError` is raised on violation.
    trace:
        A :class:`repro.sim.trace.Trace` to record events into (default:
        disabled).
    max_rounds:
        Optional wall-clock bound; exceeding it raises
        :class:`MaxRoundsExceededError`.
    max_iterations:
        Bound on simulator loop iterations (a safety net against protocols
        that listen forever); roughly one iteration per round in which at
        least one node is awake.
    loss_rate:
        Fault-injection knob for robustness testing: each message is
        independently dropped with this probability *in addition to* the
        model's drops to sleeping/terminated nodes.  The paper's model
        assumes reliable delivery (loss_rate = 0, the default); non-zero
        rates let tests demonstrate how the algorithms fail and how the
        validators catch it.
    rng:
        Stream format for the per-node random streams: ``"pernode"`` (v1,
        the default) or ``"batched"`` (v2, the counter-based stream shared
        with the vectorized engines).  See :mod:`repro.sim.rng`; the two
        formats deliberately produce different executions for the same
        seed.
    """

    def __init__(
        self,
        graph: Any,
        protocol_factory: Callable[[Any], Protocol],
        *,
        seed: Optional[int] = 0,
        congest_bit_limit: Optional[int] = None,
        trace: Optional[Trace] = None,
        max_rounds: Optional[int] = None,
        max_iterations: int = 10_000_000,
        loss_rate: float = 0.0,
        rng: str = DEFAULT_STREAM,
    ):
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {loss_rate}")
        self.adjacency = normalize_graph(graph)
        self.n = len(self.adjacency)
        self.seed = seed
        self.congest_bit_limit = congest_bit_limit
        self.trace = trace if trace is not None else NULL_TRACE
        self.max_rounds = max_rounds
        self.max_iterations = max_iterations
        self.loss_rate = loss_rate
        self._loss_rng = random.Random(f"repro-loss|{seed}")
        self.messages_lost = 0
        self._round = 0

        self.rng_stream = rng
        make_rng = make_node_rng(rng, seed)

        self.runtimes: Dict[Any, NodeRuntime] = {}
        # Frozen neighbor sets give O(1) membership checks in the send
        # loop (the tuples in ctx.neighbors would make it O(degree)).
        self._neighbor_sets: Dict[Any, frozenset] = {
            v: frozenset(nbrs) for v, nbrs in self.adjacency.items()
        }
        for index, v in enumerate(sorted(self.adjacency)):
            stats = NodeStats(node_id=v)
            ctx = NodeContext(
                node_id=v,
                neighbors=self.adjacency[v],
                n=self.n,
                rng=make_rng(v, index),
                stats=stats,
                trace=self.trace,
                clock=lambda: self._round,
            )
            protocol = protocol_factory(v)
            if not isinstance(protocol, Protocol):
                raise TypeError(
                    f"protocol_factory({v!r}) returned "
                    f"{type(protocol).__name__}, expected a Protocol"
                )
            self.runtimes[v] = NodeRuntime(v, protocol, ctx, stats, self.trace)

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute until every node terminates and return the result."""
        awake: set = set()
        sleep_heap: list = []  # (wake_round, node_id)
        live = 0

        for v, rt in self.runtimes.items():
            rt.start()
            live += self._register(rt, awake, sleep_heap)

        iterations = 0
        while live > 0:
            iterations += 1
            if iterations > self.max_iterations:
                raise MaxRoundsExceededError(self._round, live)
            current = self._round
            if self.max_rounds is not None and current > self.max_rounds:
                raise MaxRoundsExceededError(self.max_rounds, live)

            # Wake sleepers scheduled for this round.
            while sleep_heap and sleep_heap[0][0] <= current:
                _, v = heapq.heappop(sleep_heap)
                rt = self.runtimes[v]
                if rt.state is not NodeState.SLEEPING:
                    continue
                live -= 1
                rt.advance(None, current)
                live += self._register(rt, awake, sleep_heap)

            if not awake:
                if not sleep_heap:
                    break  # everyone terminated on wake-up
                # Fast-forward: nobody is awake until the next wake-up.
                self._round = sleep_heap[0][0]
                continue

            inboxes = self._exchange(awake, current)

            # Hand inboxes to the awake nodes; their next action applies
            # from round current + 1.
            self._round = current + 1
            acting = sorted(awake)
            awake.clear()
            for v in acting:
                rt = self.runtimes[v]
                live -= 1
                rt.advance(inboxes.get(v, {}), current + 1)
                live += self._register(rt, awake, sleep_heap)

        return self._build_result()

    # ------------------------------------------------------------------

    @staticmethod
    def _register(rt: NodeRuntime, awake: set, sleep_heap: list) -> int:
        """File the runtime under its new state; return 1 if still live."""
        if rt.state is NodeState.AWAKE:
            awake.add(rt.node_id)
            return 1
        if rt.state is NodeState.SLEEPING:
            heapq.heappush(sleep_heap, (rt.wake_round, rt.node_id))
            return 1
        return 0  # terminated

    def _exchange(self, awake: set, current: int) -> Dict[Any, Dict[Any, Any]]:
        """Collect sends from awake nodes, deliver to awake nodes, account."""
        inboxes: Dict[Any, Dict[Any, Any]] = {}
        trace_on = self.trace.enabled
        limit = self.congest_bit_limit
        senders: set = set()
        for v in awake:
            rt = self.runtimes[v]
            action = rt.pending
            assert isinstance(action, SendAndReceive)
            stats = rt.stats
            stats.awake_rounds += 1
            neighbor_set = self._neighbor_sets[v]
            for u, payload in action.messages.items():
                if u not in neighbor_set:
                    raise ProtocolError(
                        f"node {v!r} sent to {u!r}, which is not a neighbor"
                    )
                bits = payload_bits(payload)
                if limit is not None and bits > limit:
                    raise CongestViolationError(v, u, bits, limit)
                stats.messages_sent += 1
                stats.bits_sent += bits
                senders.add(v)
                if trace_on:
                    self.trace.record(
                        current, v, "send", to=u, payload=payload
                    )
                if self.loss_rate and self._loss_rng.random() < self.loss_rate:
                    self.messages_lost += 1
                    continue
                if u in awake:
                    inboxes.setdefault(u, {})[v] = payload
        # Classify every awake round exactly once, from a single source of
        # truth: tx if the node sent at least one message this round
        # (whether or not it also received, and even if every copy was
        # lost); otherwise rx if anything was delivered to it; otherwise
        # idle.  ``awake_rounds == tx + rx + idle`` always.  The spec is
        # pinned by tests/test_metrics.py::TestExchangeAccounting, which
        # the vectorized engine's counters are checked against.
        for v in awake:
            stats = self.runtimes[v].stats
            inbox = inboxes.get(v)
            if inbox:
                stats.messages_received += len(inbox)
            if v in senders:
                stats.tx_rounds += 1
            elif inbox:
                stats.rx_rounds += 1
            else:
                stats.idle_rounds += 1
        return inboxes

    def _build_result(self) -> RunResult:
        rounds = 0
        for rt in self.runtimes.values():
            if rt.stats.finish_round is not None:
                rounds = max(rounds, rt.stats.finish_round)
        return RunResult(
            n=self.n,
            rounds=rounds,
            seed=self.seed,
            node_stats={v: rt.stats for v, rt in self.runtimes.items()},
            outputs={
                v: rt.protocol.output() for v, rt in self.runtimes.items()
            },
            protocols={v: rt.protocol for v, rt in self.runtimes.items()},
            adjacency=self.adjacency,
        )


def simulate(
    graph: Any,
    protocol_factory: Callable[[Any], Protocol],
    **kwargs: Any,
) -> RunResult:
    """One-shot convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(graph, protocol_factory, **kwargs).run()
