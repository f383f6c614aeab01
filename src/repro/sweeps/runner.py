"""Drain a trial frontier: claim, execute, record -- resumably.

:func:`run_sweep` is the worker/driver loop over a
:class:`~repro.sweeps.frontier.TrialFrontier`: expire stale claims,
re-issue failures, then claim -> execute -> ``done``/``fail`` until the
frontier is drained, the time budget is spent, or ``max_trials`` is hit.
Each trial samples its graph with :meth:`RunPlan.build_graph` (the
same :func:`~repro.graphs.arrays.make_family` call a plain ``sweep()``
makes), runs it through :func:`~repro.sim.batch.run_planned_trial` (the
one dispatch every entry point shares), and flattens the result with
:func:`~repro.analysis.complexity.trial_from_result` -- so a manifest
sweep's merged rows are bit-identical to a plain ``sweep()`` call over
the same grid.  :func:`_trial_payload` builds the artifact payload for
both sweep trials and service solves (:mod:`repro.service.executor`).

Every process keeps its sampled graphs warm in one LRU bounded by bytes
(:data:`GRAPH_CACHE_BYTES`, shared with the service's workers): the
plans of a sweep share each ``(family, n, seed)``, so only the first
plan to reach a seed samples its graph.  A process also keeps one
:class:`~repro.sim.fast_engine.EngineScratch` across trials.  Neither
changes a result; a cache hit's ``wall_clock_s`` does not include
sampling.

Parallel execution (``n_jobs > 1``) fans claimed trials over the one
worker pool (:class:`repro.pool.WorkerPool`) with a bounded in-flight
window, the same degrade-to-sequential story as :mod:`repro.sim.batch`:
a pool that cannot start (sandboxes) runs in-process, and a worker that
dies mid-trial makes the driver release every in-flight claim and fall
back to in-process execution -- nothing is lost either way, because
un-recorded claims simply re-pend.  The workers exit when the driver
dies, so a SIGKILLed driver leaves only its claims behind.

Fault injection (for the crash-resume test harness and the CI
kill/resume step) is driven by the ``REPRO_SWEEP_FAULT`` environment
variable -- ``raise:<key substring>`` raises inside the matching trial,
``sigkill:<key substring>`` SIGKILLs the executing process (a pool
worker under ``n_jobs > 1``, the driver itself otherwise), and
``driver-sigkill:<k>`` SIGKILLs the driver after ``k`` completions --
plus an in-process ``fault_hook`` callable for tests that want a spy or
a one-shot exception without touching the environment.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time
import warnings
from collections import OrderedDict, deque
from contextlib import closing
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..plan import RunPlan
from .frontier import TrialFrontier
from .manifest import TrialSpec, trial_key
from .merge import (
    merge_trial_artifacts,
    merged_json as _merged_json,
)

#: Environment hook for fault injection (see module docstring).
FAULT_ENV = "REPRO_SWEEP_FAULT"


class SweepFaultInjected(RuntimeError):
    """The error raised by ``REPRO_SWEEP_FAULT=raise:...`` injection."""


def _maybe_inject_fault(key: str) -> None:
    """Apply the ``REPRO_SWEEP_FAULT`` trial-level hook, if armed."""
    spec = os.environ.get(FAULT_ENV, "")
    action, _, match = spec.partition(":")
    if action not in ("raise", "sigkill") or match not in key:
        return
    if action == "raise":
        raise SweepFaultInjected(
            f"injected fault for trial {key!r} ({FAULT_ENV}={spec!r})"
        )
    os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies here


#: Bytes of sampled graphs one process keeps warm (see
#: :func:`graph_nbytes`).  Holds a sweep plan's 40 gnp-sparse n = 10^3
#: graphs (~40 KB each) and eight n = 10^4 ones (~400 KB each) with room
#: to spare; a graph larger than the budget is never kept, so a worker
#: at n = 10^7 (~400 MB a graph) does not hold on to the last one.
GRAPH_CACHE_BYTES = 8 << 20

#: Estimated bytes of a networkx graph or an adjacency dict view, per
#: node and per directed edge (tracemalloc of ``gnp_random_graph`` at
#: n = 10^3 to 10^4).
_DICT_NODE_BYTES = 220
_DICT_EDGE_BYTES = 100


def graph_nbytes(graph: Any) -> int:
    """What a cached graph costs: :meth:`GraphArrays.nbytes`, plus its
    adjacency dict view once built; an estimate for a networkx graph."""
    if hasattr(graph, "has_adjacency"):
        size = graph.nbytes()
        if graph.has_adjacency:
            size += _DICT_NODE_BYTES * graph.n + _DICT_EDGE_BYTES * graph.m
        return size
    return (
        _DICT_NODE_BYTES * graph.number_of_nodes()
        + _DICT_EDGE_BYTES * 2 * graph.number_of_edges()
    )


class _GraphCache:
    """Sampled graphs keyed on their sampling identity, least recently
    used first out once their bytes pass :data:`GRAPH_CACHE_BYTES`.

    A graph can grow after it is handed out (the generator engine builds
    a :class:`GraphArrays`' adjacency view), so each call first
    re-measures the graph the previous call returned.
    """

    def __init__(self) -> None:
        self._graphs: "OrderedDict[Tuple, Tuple[Any, int]]" = OrderedDict()
        self._last: Optional[Tuple] = None
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._graphs)

    def get(self, plan: RunPlan, seed: int) -> Any:
        entry = self._graphs.get(self._last)
        if entry is not None:
            graph, size = entry
            self._store(self._last, graph, graph_nbytes(graph) - size)
        key = (
            plan.family, plan.n, seed, plan.graph_rng,
            plan.resolved_graph_source,
        )
        self._last = key
        entry = self._graphs.get(key)
        if entry is not None:
            self._graphs.move_to_end(key)
            return entry[0]
        graph = plan.build_graph(seed)
        self._store(key, graph, graph_nbytes(graph))
        return graph

    def _store(self, key: Tuple, graph: Any, added: int) -> None:
        """Charge ``added`` more bytes to ``key``'s entry (creating it),
        then evict from the least recently used end until in budget."""
        _, size = self._graphs.get(key, (graph, 0))
        self._graphs[key] = (graph, size + added)
        self.nbytes += added
        while self.nbytes > GRAPH_CACHE_BYTES:
            _, (_, dropped) = self._graphs.popitem(last=False)
            self.nbytes -= dropped

    def clear(self) -> None:
        self._graphs.clear()
        self._last = None
        self.nbytes = 0


_GRAPHS = _GraphCache()
_SCRATCH: Any = None


def _graph_for(plan: RunPlan, seed: int) -> Any:
    """The plan's sampled graph, from this process's cache when warm."""
    return _GRAPHS.get(plan, seed)


def _scratch() -> Any:
    """This process's :class:`~repro.sim.fast_engine.EngineScratch`."""
    global _SCRATCH
    if _SCRATCH is None:
        from ..sim.fast_engine import EngineScratch

        _SCRATCH = EngineScratch()
    return _SCRATCH


def _trial_payload(
    plan: RunPlan,
    seed: int,
    inject_fault: Callable[[str], None],
) -> Tuple[Dict[str, Any], Any]:
    """The artifact payload of one ``(plan, seed)`` trial, and its result.

    The one payload builder behind both :func:`execute_trial` (sweep
    artifacts) and :func:`repro.service.executor.solve_payload` (service
    responses), so their rows cannot drift apart.  ``inject_fault`` is the
    caller's fault hook, handed the trial key.  The graph comes from this
    process's cache (:func:`_graph_for`) inside the timed region, so a
    graph-cache hit times no sampling, and the trial runs on this
    process's :func:`_scratch`.

    The payload embeds the serialized plan and seed (so artifacts are
    self-describing and ``check_artifacts.py`` can re-validate them),
    the flattened :class:`~repro.analysis.complexity.Trial` row (the
    measured series -- deterministic given ``(plan, seed)``), and the
    wall clock (stripped from every comparison).
    """
    from ..analysis.complexity import trial_from_result
    from ..sim.batch import run_planned_trial

    key = trial_key(plan, seed)
    inject_fault(key)
    scratch = _scratch()
    start = time.perf_counter()
    result = run_planned_trial(_graph_for(plan, seed), plan, seed, scratch=scratch)
    row = trial_from_result(result, plan.algorithm, family=plan.family, seed=seed)
    return {
        "trial_key": key,
        "plan": plan.to_dict(),
        "seed": seed,
        "row": asdict(row),
        "wall_clock_s": time.perf_counter() - start,
    }, result


def execute_trial(plan: RunPlan, seed: int) -> Dict[str, Any]:
    """Run one manifest trial; returns its result artifact payload
    (see :func:`_trial_payload`)."""
    payload, _ = _trial_payload(plan, seed, _maybe_inject_fault)
    return payload


def _pool_execute(payload: Tuple[str, str, int]) -> Dict[str, Any]:
    """Worker-pool job: ``(key, plan_json, seed)`` -> result payload."""
    _, plan_json, seed = payload
    return execute_trial(RunPlan.from_json(plan_json), seed)


@dataclass
class SweepReport:
    """What one :func:`run_sweep` call did (and what remains).

    ``executed`` counts trials this call actually computed (the
    zero-recompute guarantee: re-running a completed manifest reports
    ``executed == 0``); ``skipped_done`` counts trials already done when
    the call started.
    """

    total: int = 0
    executed: int = 0
    completed: int = 0
    failed: int = 0
    skipped_done: int = 0
    reissued_failed: int = 0
    expired_claims: int = 0
    remaining: int = 0
    budget_exhausted: bool = False
    wall_clock_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def all_done(self) -> bool:
        return self.remaining == 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _driver_kill_threshold() -> Optional[int]:
    spec = os.environ.get(FAULT_ENV, "")
    action, _, arg = spec.partition(":")
    if action == "driver-sigkill":
        try:
            return int(arg)
        except ValueError:
            raise ValueError(
                f"{FAULT_ENV}={spec!r}: driver-sigkill needs an integer "
                f"completion count, e.g. driver-sigkill:3"
            ) from None
    return None


def run_sweep(
    frontier: TrialFrontier,
    *,
    n_jobs: Optional[int] = None,
    budget_s: Optional[float] = None,
    max_trials: Optional[int] = None,
    worker: Optional[str] = None,
    retry_failed: bool = True,
    fault_hook: Optional[Callable[[TrialSpec], None]] = None,
) -> SweepReport:
    """Drain ``frontier`` until done, out of budget, or out of trials.

    Safe to call repeatedly and concurrently (several drivers on one
    directory): claims are atomic, completions idempotent.  ``budget_s``
    bounds *claiming*, not execution -- in-flight trials finish, so a
    budgeted CI run leaves no dangling claims behind on a clean exit.
    ``fault_hook`` runs in-process before each execution (tests use it
    as a spy counter or a one-shot exception injector).
    """
    start = time.monotonic()
    if worker is None:
        worker = f"{socket.gethostname()}:{os.getpid()}"
    if n_jobs is not None and n_jobs < 1:
        raise ValueError(
            f"n_jobs={n_jobs} is not a valid worker count: pass "
            f"n_jobs=None (or 1) for in-process execution, or an "
            f"explicit positive worker count"
        )
    report = SweepReport(total=len(frontier.manifest))
    report.expired_claims = len(frontier.expire_stale())
    if retry_failed:
        report.reissued_failed = len(frontier.reissue_failed())
    report.skipped_done = frontier.done_count
    kill_after = _driver_kill_threshold()

    def out_of_budget() -> bool:
        return (
            budget_s is not None
            and time.monotonic() - start >= budget_s
        )

    def out_of_trials() -> bool:
        return max_trials is not None and report.executed >= max_trials

    def record(key: str, payload: Dict[str, Any]) -> None:
        frontier.done(key, payload)
        report.completed += 1
        if kill_after is not None and report.completed >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

    def record_failure(key: str, message: str) -> None:
        frontier.fail(key, message, worker=worker)
        report.failed += 1
        report.errors.append(f"{key}: {message}")

    jobs = 1 if n_jobs is None else n_jobs
    degraded = False
    if jobs > 1:
        degraded = not _run_parallel(
            frontier, worker, jobs, report, fault_hook,
            out_of_budget, out_of_trials, record, record_failure,
        )
    if jobs == 1 or degraded:
        while not out_of_budget() and not out_of_trials():
            spec = frontier.claim(worker)
            if spec is None:
                break
            report.executed += 1
            try:
                if fault_hook is not None:
                    fault_hook(spec)
                payload = execute_trial(spec.plan, spec.seed)
            except Exception as exc:
                record_failure(spec.key, f"{type(exc).__name__}: {exc}")
            else:
                record(spec.key, payload)
    report.budget_exhausted = out_of_budget()
    report.remaining = report.total - frontier.done_count
    report.wall_clock_s = time.monotonic() - start
    return report


def _run_parallel(
    frontier: TrialFrontier,
    worker: str,
    jobs: int,
    report: SweepReport,
    fault_hook: Optional[Callable[[TrialSpec], None]],
    out_of_budget: Callable[[], bool],
    out_of_trials: Callable[[], bool],
    record: Callable[[str, Dict[str, Any]], None],
    record_failure: Callable[[str, str], None],
) -> bool:
    """The bounded-window pool loop; ``False`` means "degrade to
    sequential for whatever is still pending" (claims released)."""
    from ..pool import INFLIGHT_PER_WORKER, WorkerPool  # as in sim.batch

    try:
        pool = WorkerPool(jobs, max_queue=jobs * INFLIGHT_PER_WORKER)
    except OSError as exc:
        warnings.warn(
            f"process pool unavailable ({exc}); running sequentially",
            RuntimeWarning,
            stacklevel=3,
        )
        return False
    pending: deque = deque()  # (key, job)
    with closing(pool):
        while True:
            spec = None
            if not out_of_budget() and not out_of_trials():
                spec = frontier.claim(worker)
            if spec is not None:
                report.executed += 1
                try:
                    if fault_hook is not None:
                        fault_hook(spec)
                except Exception as exc:
                    record_failure(spec.key, f"{type(exc).__name__}: {exc}")
                    continue
                pending.append(
                    (
                        spec.key,
                        pool.submit(
                            _pool_execute,
                            (spec.key, spec.plan.to_json(), spec.seed),
                        ),
                    )
                )
                if len(pending) < pool.max_queue:
                    continue
            elif not pending:
                return True
            key, job = pending[0]
            outcome = job.wait()
            if outcome[:2] == ("error", "worker_killed"):
                break
            pending.popleft()
            if outcome[0] == "ok":
                record(key, outcome[1])
            else:
                record_failure(key, outcome[2])
    # A worker died mid-trial.  Release the in-flight claims -- their
    # trials were not recorded, so they simply re-pend -- and let the
    # caller fall back to in-process execution.
    for key, _ in pending:
        frontier.release(key)
        report.executed -= 1
    warnings.warn(
        f"a process pool worker died mid-trial; released {len(pending)} "
        f"in-flight claim(s) and degrading to sequential execution",
        RuntimeWarning,
        stacklevel=3,
    )
    return False


def merged_rows(frontier: TrialFrontier) -> Dict[str, Dict[str, Any]]:
    """Merge-verify every landed artifact: ``key -> stripped payload``."""
    return merge_trial_artifacts(frontier.iter_results())


def merged_result_json(frontier: TrialFrontier) -> str:
    """The canonical merged result set (see :func:`repro.sweeps.merge.merged_json`).

    Byte-identical between an interrupted-then-resumed sweep and an
    uninterrupted one -- the comparison surface of the crash-resume
    guarantee.
    """
    return _merged_json(merged_rows(frontier))


def write_merged(frontier: TrialFrontier, path: Optional[str] = None) -> str:
    """Write the canonical merged result set next to the frontier.

    Returns the path written (default: ``<sweep_dir>/MERGED.json``).
    Only meaningful once :attr:`~TrialFrontier.is_complete` for
    publication, but callable any time for partial snapshots.
    """
    target = path or str(frontier.directory / "MERGED.json")
    merged = merged_rows(frontier)
    with open(target, "w") as handle:
        json.dump(
            {
                "manifest_key": frontier.manifest.manifest_key(),
                "name": frontier.manifest.name,
                "done": len(merged),
                "total": len(frontier.manifest),
                "trials": {key: merged[key] for key in sorted(merged)},
            },
            handle,
            sort_keys=True,
            indent=1,
        )
        handle.write("\n")
    return target
