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
    algorithm: Optional[str] = None,
    *,
    plan: Optional["RunPlan"] = None,
    trace: Optional[Trace] = None,
    **knobs: Any,
) -> Union[RunResult, ArrayRunResult]:
    """Compute an MIS of ``graph`` with the named distributed algorithm.

    ``graph`` is a ``networkx.Graph``, an adjacency mapping, or a prebuilt
    :class:`repro.graphs.csr.GraphArrays` (e.g. from the array-native
    samplers in :mod:`repro.graphs.arrays`); ``algorithm`` one of
    :func:`algorithm_names` (``"fast-sleeping"``, Algorithm 2, when left
    out).  The configuration is either ``plan=`` (a
    :class:`repro.plan.RunPlan`) or loose ``**knobs``: names of RunPlan
    fields (``seed=``, ``engine=``, ``rng=``, ``result=``, ...; see its
    docstring) and protocol kwargs (``coin_bias=0.4``, ``depth=3``, ...).
    Knobs left out take the single-run profile
    :data:`repro.plan.SINGLE_RUN`: the generator engine and a legacy
    :class:`RunResult`, whose ``result.protocols`` per-call analyses read.
    ``trace`` is a live instrumentation object, not configuration.

    Returns
    -------
    RunResult or ArrayRunResult
        ``result.mis`` is the computed set; the four complexity measures are
        available as properties on either result type.
    """
    from .plan import SINGLE_RUN, ensure_plan
    from .sim.batch import run_planned_trial

    if algorithm is not None:
        knobs["algorithm"] = algorithm
    plan = ensure_plan("solve_mis", plan, knobs, **SINGLE_RUN)
    return run_planned_trial(graph, plan, plan.seed, trace=trace)
