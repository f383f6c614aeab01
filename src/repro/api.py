"""Top-level convenience API: run any registered MIS algorithm on a graph.

This is the entry point downstream users touch first::

    result = solve_mis(graph, algorithm="fast-sleeping", seed=7)
    result.mis                                  # frozenset of MIS nodes
    result.node_averaged_awake_complexity       # the paper's headline measure

Two execution engines sit behind ``solve_mis``:

* ``engine="generators"`` (default) -- the reference per-node generator
  simulator; fully general (tracing, CONGEST checks, fault injection,
  per-call instrumentation via ``result.protocols``);
* ``engine="vectorized"`` -- the numpy array-backed engines; every
  registered algorithm has one (the capability registry is
  :data:`repro.sim.fast_engine.ENGINE_CAPABILITIES`), with bit-for-bit
  identical results, much faster;
* ``engine="auto"`` -- vectorized when the configuration allows it,
  generator fallback otherwise (e.g. tracing or congest checks
  requested).

Orthogonally, ``rng=`` selects the per-node random stream format:
``"pernode"`` (v1, the default) or ``"batched"`` (v2, whole-array draws;
same seed gives a *different* execution than v1 -- see
:mod:`repro.sim.rng`).  Both engines implement both formats identically.

For many seeds at once, see :func:`repro.sim.batch.run_trials`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from .sim.array_result import ArrayRunResult
from .sim.metrics import RunResult
from .sim.protocol import Protocol
from .sim.rng import DEFAULT_STREAM
from .sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plan import RunPlan


def _lazy_registry() -> Dict[str, Callable[..., Protocol]]:
    # Imported lazily to avoid a circular import at package load.
    from .baselines.abi import ABIMIS
    from .baselines.dist_greedy import DistGreedyMIS
    from .baselines.ghaffari import GhaffariMIS
    from .baselines.luby import LubyMIS
    from .core.fast_sleeping_mis import FastSleepingMIS
    from .core.sleeping_mis import SleepingMIS

    return {
        "sleeping": SleepingMIS,
        "fast-sleeping": FastSleepingMIS,
        "luby": LubyMIS,
        "greedy": DistGreedyMIS,
        "ghaffari": GhaffariMIS,
        "abi": ABIMIS,
    }


#: Name -> protocol class.  Populated on first use.
ALGORITHMS: Dict[str, Callable[..., Protocol]] = {}


def _registry() -> Dict[str, Callable[..., Protocol]]:
    if not ALGORITHMS:
        ALGORITHMS.update(_lazy_registry())
    return ALGORITHMS


def algorithm_names() -> List[str]:
    """Sorted names of the registered MIS algorithms."""
    return sorted(_registry())


def make_protocol_factory(
    algorithm: str, **protocol_kwargs: Any
) -> Callable[[Any], Protocol]:
    """A ``node_id -> Protocol`` factory for the named algorithm.

    An unknown name raises ``ValueError`` with close-match suggestions
    -- the shared registry error path (:mod:`repro._registry`).
    """
    registry = _registry()
    if algorithm not in registry:
        from ._registry import unknown_name_error

        raise unknown_name_error("algorithm", algorithm, registry)
    cls = registry[algorithm]
    return lambda node_id: cls(**protocol_kwargs)


def solve_mis(
    graph: Any,
    algorithm: str = "fast-sleeping",
    *,
    plan: Optional["RunPlan"] = None,
    seed: Optional[int] = 0,
    congest_bit_limit: Optional[int] = None,
    trace: Optional[Trace] = None,
    max_rounds: Optional[int] = None,
    engine: str = "generators",
    rng: str = DEFAULT_STREAM,
    result: str = "legacy",
    dtype: str = "default",
    **protocol_kwargs: Any,
) -> Union[RunResult, ArrayRunResult]:
    """Compute an MIS of ``graph`` with the named distributed algorithm.

    Parameters
    ----------
    graph:
        ``networkx.Graph``, adjacency mapping, or a prebuilt
        :class:`repro.graphs.csr.GraphArrays` (e.g. from the
        array-native samplers in :mod:`repro.graphs.arrays` -- at
        n = 10^4..10^5 building the graph array-natively is the
        difference between the graph costing more than the run and being
        noise).
    algorithm:
        One of :func:`algorithm_names` -- ``"sleeping"`` (Algorithm 1),
        ``"fast-sleeping"`` (Algorithm 2, the default), ``"luby"``,
        ``"greedy"`` (distributed randomized greedy), ``"ghaffari"``, or
        ``"abi"`` (Alon--Babai--Itai).
    plan:
        A pre-validated :class:`repro.plan.RunPlan` carrying the full
        knob configuration (algorithm, engine, rng, result, ...).
        Mutually exclusive with the loose knob keywords below; derive
        variants with ``plan.replace(...)``.  ``trace`` stays a loose
        argument (a live instrumentation object, not configuration).
    seed:
        Master seed for all per-node random streams.
    engine:
        ``"generators"`` (default, the reference engine),
        ``"vectorized"`` (numpy engines for every registered algorithm,
        identical results), or ``"auto"`` (vectorized when eligible).
        The vectorized engines return no ``result.protocols``; analyses
        needing per-call records must use the generator engine.
    rng:
        Random-stream format: ``"pernode"`` (v1, the default) or
        ``"batched"`` (v2).  The formats are versioned and deliberately
        incompatible; pin the format alongside the seed to reproduce a
        run (see :mod:`repro.sim.rng`).
    result:
        ``"legacy"`` (default) returns :class:`RunResult` with per-node
        :class:`NodeStats` dicts; ``"arrays"`` returns the
        struct-of-arrays :class:`repro.sim.array_result.ArrayRunResult`
        (same measures, integer-exact, with a lazy legacy view);
        ``"auto"`` picks arrays exactly when a vectorized engine runs.
    dtype:
        Result column-dtype policy: ``"default"`` keeps the historical
        int64/float64 columns bit for bit; ``"narrow"`` stores each
        array-result column in the smallest dtype representing it exactly
        (see :data:`repro.sim.array_result.DTYPE_KINDS`).
    protocol_kwargs:
        Forwarded to the protocol constructor (e.g. ``coin_bias=0.4``,
        ``greedy_constant=12``, ``max_phases=50``).

    Returns
    -------
    RunResult or ArrayRunResult
        ``result.mis`` is the computed set; the four complexity measures are
        available as properties on either result type.
    """
    from .plan import ensure_plan
    from .sim.batch import run_planned_trial

    plan = ensure_plan(
        solve_mis,
        plan,
        given=dict(
            algorithm=algorithm,
            seed=seed,
            congest_bit_limit=congest_bit_limit,
            max_rounds=max_rounds,
            engine=engine,
            rng=rng,
            result=result,
            dtype=dtype,
            protocol_kwargs=protocol_kwargs,
        ),
    )
    return run_planned_trial(graph, plan, plan.seed, trace=trace)
