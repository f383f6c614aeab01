"""Batch trial runner: many ``(graph, seed)`` executions, optionally parallel.

The paper's results are statistical -- every figure and table averages over
many trials -- so the measurement loop, not any single run, is the hot
path.  :func:`iter_trials` streams one :class:`RunResult` per seed, in seed
order; :func:`run_trials` is the list-returning convenience wrapper.

:func:`run_planned_trial` is the one dispatch from ``(graph, plan, seed)``
to a result, shared by every entry point (``solve_mis``, ``run_trial``,
this runner, sweep trials and service solves): trials run on a
vectorized engine (:mod:`repro.sim.fast_engine` for the sleeping
algorithms, :mod:`repro.sim.fast_phased` for the four phased baselines)
whenever it supports the configuration, falling back to the generator
engine otherwise (``engine="auto"``); ``result="arrays"`` (or
``"auto"``) keeps each trial's statistics as numpy columns
(:class:`repro.sim.array_result.ArrayRunResult`) instead of per-node
dicts.  Around it, the runner layers three optimizations over naive
sequential calls:

* **graph-structure reuse** -- consecutive seeds sharing one graph object
  normalize it once and share one
  :class:`repro.graphs.csr.GraphArrays`;
* **scratch reuse** -- sequential vectorized trials borrow their state
  arrays from one :class:`repro.sim.fast_engine.EngineScratch`, so a
  10^4-trial sweep does not reallocate a dozen node-sized buffers per
  trial;
* **streaming** -- graphs are built and results yielded one seed at a
  time, so a 10^4..10^7-node sweep holds one graph and one result in
  memory, not ``len(seeds)`` of each (at 10^7 the graph itself also
  builds in bounded transient memory: the v2 sampler feeds its pair
  chunks through :meth:`GraphArrays.from_distinct_pair_chunks`, which
  keeps only their int32 ``lo`` column, in the buffer that becomes
  ``dst``, instead of buffering int64 pairs -- see
  docs/performance.md, "Scaling to 10^7").
  With ``n_jobs`` workers, seed chunks fan out over the one worker pool
  (:class:`repro.pool.WorkerPool`) with a bounded in-flight window;
  graphs cross process boundaries as plain adjacency dicts or as
  :class:`GraphArrays` whose edge arrays pickle without the (lazily
  rebuilt) adjacency dict.  If the pool cannot start (restricted
  sandboxes) or a worker dies mid-chunk, the runner warns and runs the
  seeds not yet yielded in-process instead of failing.
"""

from __future__ import annotations

import warnings
from collections import deque
from contextlib import closing
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..graphs.csr import GraphArrays
from ..profiling import phase
from . import fast_engine
from .array_result import ArrayRunResult, resolve_result_kind
from .fast_engine import (
    PHASED_ALGORITHMS,
    EngineScratch,
    VectorizedEngine,
)
from .fast_phased import PhasedVectorizedEngine
from .metrics import RunResult
from .network import Simulator, normalize_graph
from .rng import DEFAULT_STREAM
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..plan import RunPlan
    from ..pool import WorkerPool

#: What one trial yields: the legacy dict-backed result or the
#: struct-of-arrays result, depending on ``result=``.
ResultLike = Union[RunResult, ArrayRunResult]

#: Engine names accepted throughout the package.
ENGINES = ("auto", "generators", "vectorized")


def resolve_engine(
    engine: str, algorithm: str, **constraints: Any
) -> str:
    """Map an engine request to the concrete engine that will run.

    ``"auto"`` selects ``"vectorized"`` exactly when
    :func:`repro.sim.fast_engine.supports` certifies the configuration
    against the capability registry
    (:data:`repro.sim.fast_engine.ENGINE_CAPABILITIES`); requesting
    ``"vectorized"`` for an unsupported configuration is an error rather
    than a silent behaviour change, and the error names the
    generator-only reason (an algorithm outside the registry, or a
    generator-only instrumentation feature) -- the support matrix is
    documented in ``docs/performance.md``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    if engine == "generators":
        return "generators"
    reason = fast_engine.unsupported_reason(algorithm, **constraints)
    if engine == "vectorized" and reason is not None:
        raise ValueError(
            f"vectorized engine cannot run algorithm={algorithm!r}: "
            f"{reason}; use engine='generators', or engine='auto' to fall "
            f"back to the generator engine automatically"
        )
    return "generators" if reason else "vectorized"


def make_vectorized_engine(
    graph: Any,
    algorithm: str,
    *,
    seed: Optional[int] = 0,
    max_rounds: Optional[int] = None,
    rng: str = DEFAULT_STREAM,
    scratch: Optional[EngineScratch] = None,
    result: str = "arrays",
    dtype: str = "default",
    **protocol_kwargs: Any,
):
    """The vectorized engine instance for ``algorithm`` (sleeping or phased).

    ``graph`` may be a prebuilt :class:`GraphArrays`; ``scratch`` an
    :class:`EngineScratch` shared across sequential constructions;
    ``dtype`` the column-dtype policy
    (:data:`repro.sim.array_result.DTYPE_KINDS`) of the
    :class:`ArrayRunResult` the engine's ``run()`` builds.

    The engines build no other result, so ``result`` may only name a kind
    that resolves to ``"arrays"`` on a vectorized engine (``"arrays"`` or
    ``"auto"``).  It stays a keyword so callers can pass a plan's
    resolved result kind straight through; the legacy view is
    :func:`run_planned_trial`'s to make.

    Construction (per-node RNG seeding, eager coin matrices on the v1
    stream) is attributed to the ``engine`` phase under active profiling.
    """
    if resolve_result_kind(result, "vectorized") != "arrays":
        raise ValueError(
            f"the vectorized engines build only ArrayRunResult, not "
            f"result={result!r}; run the plan through run_planned_trial, "
            f"or call .to_run_result() on the engine's result"
        )
    cls = (
        PhasedVectorizedEngine
        if algorithm in PHASED_ALGORITHMS
        else VectorizedEngine
    )
    with phase("engine"):
        return cls(
            graph,
            algorithm,
            seed=seed,
            max_rounds=max_rounds,
            rng=rng,
            scratch=scratch,
            dtype=dtype,
            **protocol_kwargs,
        )


def run_planned_trial(
    graph: Any,
    plan: "RunPlan",
    seed: Optional[int],
    *,
    scratch: Optional[EngineScratch] = None,
    trace: Optional[Trace] = None,
) -> ResultLike:
    """One trial of ``plan`` on ``graph`` with ``seed`` -- the one dispatch.

    Every path from a plan to a result lands here: :func:`repro.api.solve_mis`,
    :func:`repro.analysis.complexity.run_trial`, the batch runner (in
    process and in pool workers), sweep trials and service solves.  It
    resolves the engine and result kind, and constructs and runs the
    engine, honouring every plan knob (``max_rounds`` included) on both
    engines.  It is also where the result kind is met: a vectorized
    engine's :class:`ArrayRunResult` becomes the legacy view through
    ``.to_run_result()``, and a generator run's :class:`RunResult` the
    array view through :meth:`ArrayRunResult.from_run_result` -- one
    conversion each way.

    ``graph`` may be a ``networkx.Graph``, an adjacency mapping, or a
    prebuilt :class:`GraphArrays` (the dict view stays unbuilt unless the
    generator engine runs).  ``scratch`` lends state arrays to a
    vectorized engine, so a caller running many trials (a batch chunk, a
    long-lived service worker) amortizes them; the generator engine
    ignores it.  ``trace`` is a live instrumentation object, not plan
    configuration: it forces the generator engine under ``engine="auto"``
    and is rejected under ``engine="vectorized"``.
    """
    protocol_kwargs = plan.protocol_dict()
    engine = resolve_engine(
        plan.engine,
        plan.algorithm,
        trace=trace,
        congest_bit_limit=plan.congest_bit_limit,
        **protocol_kwargs,
    )
    result = resolve_result_kind(plan.result, engine)
    if engine == "vectorized":
        arrays = make_vectorized_engine(
            graph if isinstance(graph, GraphArrays) else GraphArrays(graph),
            plan.algorithm,
            seed=seed,
            max_rounds=plan.max_rounds,
            rng=plan.rng,
            scratch=scratch,
            dtype=plan.dtype,
            **protocol_kwargs,
        ).run()
        return arrays if result == "arrays" else arrays.to_run_result()
    from ..api import make_protocol_factory  # local: avoid import cycle

    run = Simulator(
        graph,
        make_protocol_factory(plan.algorithm, **protocol_kwargs),
        seed=seed,
        max_rounds=plan.max_rounds,
        congest_bit_limit=plan.congest_bit_limit,
        trace=trace,
        rng=plan.rng,
    ).run()
    if result == "arrays":
        return ArrayRunResult.from_run_result(run, plan.dtype)
    return run


def _run_chunk(
    payload: Tuple[Any, "RunPlan", List[Optional[int]]],
) -> List[ResultLike]:
    """Process-pool task: ``(graph, plan, seeds)`` -- one graph, a chunk
    of seeds.

    ``graph`` is either a plain adjacency dict or a :class:`GraphArrays`
    shipped with its lazy adjacency unbuilt -- for array-native sweeps
    the int32 edge arrays are both smaller on the wire and free to use on
    arrival (no per-worker re-normalization)."""
    graph, plan, seeds = payload
    graph = _engine_graph(graph, plan.resolved_engine)
    scratch = EngineScratch()
    return [
        run_planned_trial(graph, plan, seed, scratch=scratch) for seed in seeds
    ]


def _engine_graph(graph: Any, engine: str) -> Any:
    """``graph`` as the resolved engine consumes it: a vectorized engine
    gets a :class:`GraphArrays` (built here, once, for all the seeds that
    share the graph); the generator engine takes it as it is."""
    if engine == "vectorized" and not isinstance(graph, GraphArrays):
        return GraphArrays(graph)
    return graph


def _iter_graphs(
    graph_factory: Any, seeds: Iterable[Optional[int]]
) -> Iterator[Tuple[Any, Optional[int]]]:
    """Yield ``(graph, seed)`` lazily, one graph at a time, where
    ``graph`` is a prebuilt :class:`GraphArrays` or a normalized
    adjacency dict.

    Consecutive seeds whose factory returns the *same object* (the
    shared-graph pattern, including non-callable ``graph_factory``) share
    one normalization, and yield the same ``graph`` object.  A factory
    may return a prebuilt :class:`GraphArrays` to amortize edge-array
    construction across callers (e.g. ``build_table1`` measuring several
    algorithms on the same graphs, or the array-native samplers in
    :mod:`repro.graphs.arrays`); its dict view stays unbuilt unless the
    generator engine runs.
    """
    factory: Callable[[Optional[int]], Any] = (
        graph_factory if callable(graph_factory) else lambda seed: graph_factory
    )
    prev_raw: Any = None
    prev_graph: Any = None
    seen_one = False
    for seed in seeds:
        raw = factory(seed)
        if not seen_one or raw is not prev_raw:
            prev_graph = (
                raw if isinstance(raw, GraphArrays) else normalize_graph(raw)
            )
            prev_raw = raw
            seen_one = True
        yield prev_graph, seed


def iter_trials(
    graph_factory: Any,
    algorithm: Optional[str] = None,
    *,
    seeds: Iterable[Optional[int]] = range(10),
    plan: Optional["RunPlan"] = None,
    **knobs: Any,
) -> Iterator[ResultLike]:
    """Stream one result per seed, in seed order.

    This is the memory-bounded core of :func:`run_trials`: graphs are
    built lazily and each result is handed to the caller before the next
    trial starts, so sweeps can aggregate 10^4-node runs without ever
    holding more than one of them.

    ``graph_factory`` is either a callable ``seed -> graph`` (fresh graph
    per trial) or a single graph object shared by every trial; a factory
    may return a prebuilt :class:`GraphArrays` (e.g. from
    :mod:`repro.graphs.arrays`), which skips graph normalization entirely
    on the vectorized path.  ``seeds`` are the master seeds, one trial
    each.  The configuration is either ``plan=`` (a
    :class:`repro.plan.RunPlan`) or loose ``**knobs`` (RunPlan fields and
    protocol kwargs; see its docstring), with ``result="legacy"`` the
    default; ``n_jobs > 1`` fans seed chunks out over worker processes.
    """
    from ..plan import ensure_plan, reject_grid_knobs

    reject_grid_knobs(
        "iter_trials", knobs,
        seed="pass the trial seeds as seeds=[...]",
        n="graph_factory builds each trial's graph from its seed in seeds=",
    )
    if algorithm is not None:
        knobs["algorithm"] = algorithm
    plan = ensure_plan("iter_trials", plan, knobs, result="legacy")
    # Plan construction already validated names and combinations; resolve
    # the concrete engine/result once and iterate.
    return _iter_trials_planned(graph_factory, seeds, plan)


def _iter_trials_planned(
    graph_factory: Any,
    seeds: Iterable[Optional[int]],
    plan: "RunPlan",
) -> Iterator[ResultLike]:
    """The generator core behind :func:`iter_trials` (validation happens
    eagerly in the wrapper, not on first ``next()``)."""
    seed_list = list(seeds)
    if not seed_list:
        return
    jobs = _effective_jobs(plan.n_jobs, len(seed_list))
    if jobs > 1:
        # Lazy: sequential runs never import multiprocessing.
        from ..pool import INFLIGHT_PER_WORKER, WorkerPool

        done = 0
        failure = None
        try:
            pool = WorkerPool(jobs, max_queue=jobs * INFLIGHT_PER_WORKER)
        except OSError as exc:
            failure = f"process pool unavailable ({exc})"
        else:
            with closing(pool):
                chunks = _iter_chunks(
                    _iter_graphs(graph_factory, seed_list), plan,
                    target=max(1, len(seed_list) // (jobs * 4) or 1),
                )
                for outcome in _pool_outcomes(pool, chunks):
                    if outcome[0] != "ok":
                        # A chunk that raised is re-run in-process below,
                        # where its exception surfaces with its own type.
                        if outcome[1] == "worker_killed":
                            failure = "a process pool worker died"
                        break
                    done += len(outcome[1])
                    yield from outcome[1]
                else:
                    return
        if failure is not None:
            warnings.warn(
                f"{failure}; running the remaining "
                f"{len(seed_list) - done} trial(s) sequentially",
                RuntimeWarning,
                stacklevel=2,
            )
        seed_list = seed_list[done:]

    engine = plan.resolved_engine
    scratch = EngineScratch()
    graph_for: Any = None
    for graph, seed in _iter_graphs(graph_factory, seed_list):
        if graph is not graph_for:
            graph_for, prepared = graph, _engine_graph(graph, engine)
        yield run_planned_trial(prepared, plan, seed, scratch=scratch)


def run_trials(
    graph_factory: Any,
    algorithm: Optional[str] = None,
    *,
    seeds: Iterable[Optional[int]] = range(10),
    plan: Optional["RunPlan"] = None,
    **knobs: Any,
) -> List[ResultLike]:
    """Run ``algorithm`` once per seed; results come back in seed order.

    The list-returning wrapper around :func:`iter_trials` (same
    parameters); prefer the iterator for large sweeps.
    """
    return list(
        iter_trials(graph_factory, algorithm, seeds=seeds, plan=plan, **knobs)
    )


def _effective_jobs(n_jobs: Optional[int], n_tasks: int) -> int:
    # RunPlan validation guarantees n_jobs is None or >= 1 by the time
    # it reaches here (0/negative requests are rejected at construction
    # with an error naming the fix).
    if n_jobs is None or n_jobs == 1:
        return 1
    return min(n_jobs, n_tasks)


def _iter_chunks(
    graph_seed_iter: Iterator[Tuple[Any, Optional[int]]],
    plan: "RunPlan",
    target: int,
) -> Iterator[Tuple[Any, "RunPlan", List[Optional[int]]]]:
    """Chunk runs of consecutive seeds that share a graph, so workers
    amortize :class:`GraphArrays` construction; aim for a few chunks per
    worker (``target`` seeds each).  The chunk carries whichever graph
    representation the factory produced: a plain adjacency dict, or a
    :class:`GraphArrays` whose lazy adjacency stays unbuilt (pickling the
    int32 edge arrays beats materializing and pickling a 10^5-entry
    dict)."""
    chunk_graph: Any = None
    chunk_seeds: List[Optional[int]] = []
    for graph, seed in graph_seed_iter:
        if chunk_seeds and (
            graph is not chunk_graph or len(chunk_seeds) >= target
        ):
            yield chunk_graph, plan, chunk_seeds
            chunk_seeds = []
        chunk_graph = graph
        chunk_seeds.append(seed)
    if chunk_seeds:
        yield chunk_graph, plan, chunk_seeds


def _pool_outcomes(pool: "WorkerPool", chunks: Iterator[Tuple]) -> Iterator[Tuple]:
    """Run chunks on ``pool`` with at most ``pool.max_queue`` in flight,
    yielding each chunk's outcome in submission (= seed) order."""
    pending: deque = deque()
    for chunk in chunks:
        pending.append(pool.submit(_run_chunk, chunk))
        if len(pending) >= pool.max_queue:
            yield pending.popleft().wait()
    while pending:
        yield pending.popleft().wait()
