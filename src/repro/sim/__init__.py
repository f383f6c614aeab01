"""Sleeping-model CONGEST simulator (the paper's model, executable).

Public surface:

* :class:`Simulator` / :func:`simulate` -- run a protocol over a graph;
* :class:`Protocol` / :class:`MISProtocol` -- per-node behaviour as
  generators;
* :class:`SendAndReceive`, :class:`Sleep`, :data:`LISTEN` -- the action
  vocabulary;
* :class:`RunResult`, :class:`NodeStats` -- the paper's complexity measures;
* :class:`EnergyModel` -- energy accounting for the sensor-network story;
* :class:`Trace` / :func:`make_trace` -- optional execution tracing.

Two execution engines produce the same :class:`RunResult`:

* the **generator engine** (:class:`Simulator`) runs any
  :class:`Protocol` -- one generator per node -- and is the semantics
  reference; tracing, CONGEST bit budgets, and fault injection
  (``loss_rate``) live here exclusively;
* the **vectorized engines** (:class:`VectorizedEngine` for the sleeping
  algorithms, :class:`PhasedVectorizedEngine` for the Luby/greedy
  baselines) replay the algorithms over numpy arrays, bit-for-bit equal
  to the generator engine for the same ``(graph, seed, rng)`` and far
  faster; they build an :class:`ArrayRunResult`, whose
  ``to_run_result()`` is that :class:`RunResult`;
  configurations they cannot run exactly (tracing, congest checks, other
  algorithms, per-call instrumentation) fall back to the generator path
  via ``engine="auto"``.

Per-node randomness comes in two versioned stream formats
(:mod:`repro.sim.rng`): ``rng="pernode"`` (v1, one seeded
``random.Random`` per node, the default) and ``rng="batched"`` (v2,
counter-based whole-array draws, the format that scales sweeps to
n = 10^4..10^5).

:func:`run_trials` / :func:`iter_trials` (in :mod:`repro.sim.batch`) fan
many ``(graph, seed)`` trials across both engines and, optionally, worker
processes.
"""

from .actions import LISTEN, Action, SendAndReceive, Sleep
from .array_result import RESULT_KINDS, ArrayRunResult
from .context import NodeContext
from .energy import DEFAULT_MODEL, IDEAL_MODEL, EnergyModel
from .errors import (
    CongestViolationError,
    MaxRoundsExceededError,
    ProtocolError,
    SimulationError,
)
from ..graphs.csr import GraphArrays
from .fast_engine import EngineScratch, VectorizedEngine
from .fast_phased import PhasedVectorizedEngine
from .batch import iter_trials, run_trials
from .messages import Message, payload_bits
from .metrics import NodeStats, RunResult
from .node import NodeRuntime, NodeState
from .network import Simulator, node_rng, normalize_graph, simulate
from .protocol import MISProtocol, Protocol
from .rng import RNG_STREAMS, STREAM_VERSIONS, CounterRNG, node_rng_factory
from .trace import NULL_TRACE, Trace, TraceEvent, make_trace

__all__ = [
    "Action",
    "ArrayRunResult",
    "CongestViolationError",
    "CounterRNG",
    "DEFAULT_MODEL",
    "EngineScratch",
    "EnergyModel",
    "GraphArrays",
    "IDEAL_MODEL",
    "LISTEN",
    "MaxRoundsExceededError",
    "Message",
    "MISProtocol",
    "NULL_TRACE",
    "NodeContext",
    "NodeRuntime",
    "NodeState",
    "NodeStats",
    "PhasedVectorizedEngine",
    "Protocol",
    "ProtocolError",
    "RESULT_KINDS",
    "RNG_STREAMS",
    "RunResult",
    "STREAM_VERSIONS",
    "SendAndReceive",
    "SimulationError",
    "Simulator",
    "Sleep",
    "Trace",
    "TraceEvent",
    "VectorizedEngine",
    "iter_trials",
    "make_trace",
    "node_rng",
    "node_rng_factory",
    "normalize_graph",
    "payload_bits",
    "run_trials",
    "simulate",
]
