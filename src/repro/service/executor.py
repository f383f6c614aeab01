"""Worker-side execution: the functions that actually solve.

These run inside pool worker *processes* (:mod:`repro.pool`),
which live across requests -- so solves use the two warm-state pools
the per-invocation CLI can never have, both kept per process by
:mod:`repro.sweeps.runner` for sweep trials too:

* one persistent :class:`~repro.sim.fast_engine.EngineScratch`, so
  vectorized solves stop reallocating node-sized state arrays per
  request;
* an LRU of sampled graphs keyed on the exact sampling identity
  ``(family, n, seed, graph_rng, resolved source)`` and bounded by
  their bytes (:data:`repro.sweeps.runner.GRAPH_CACHE_BYTES`), so
  repeated solves of one subject (different algorithms, knobs, or
  deadlines) skip re-sampling entirely.

:func:`solve_payload` and :func:`repro.sweeps.runner.execute_trial`
build their payloads with one shared builder
(:func:`repro.sweeps.runner._trial_payload`: same graph sampling, same
:func:`~repro.sim.batch.run_planned_trial` dispatch, same
:func:`~repro.analysis.complexity.trial_from_result` flattening), which
is what lets the CLI's local fallback and a warm server return identical
rows.  Fault injection follows the sweep harness's pattern:
``REPRO_SERVICE_FAULT=hang:<match>`` spins the matching trial forever
(reaper fodder), ``sigkill:<match>`` SIGKILLs the executing worker.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict, Tuple

from ..plan import RunPlan
from ..sweeps.runner import _graph_for, _scratch, _trial_payload
from .schema import SolveResponse, Table1Response

#: Environment hook for fault injection, matched against the trial key
#: (the sweep harness's ``REPRO_SWEEP_FAULT`` pattern): ``hang:<match>``
#: never returns, ``sigkill:<match>`` kills the executing worker.
FAULT_ENV = "REPRO_SERVICE_FAULT"


def _maybe_inject_fault(key: str) -> None:
    spec = os.environ.get(FAULT_ENV, "")
    action, _, match = spec.partition(":")
    if action not in ("hang", "sigkill") or match not in key:
        return
    if action == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies here
    while True:  # pragma: no cover - reaped from outside
        time.sleep(0.05)


def solve_payload(plan: RunPlan, seed: int) -> Dict[str, Any]:
    """One solve; returns the artifact-shaped payload dict.

    Built by the same :func:`repro.sweeps.runner._trial_payload` as
    :func:`repro.sweeps.runner.execute_trial`, so the ``row`` is
    bit-identical to a sweep trial's for the same ``(plan, seed)``; warm
    state (scratch, cached graphs) changes allocation, never results.
    The service payload adds ``mis_size``.
    """
    from ..sim.array_result import ArrayRunResult

    payload, result = _trial_payload(
        plan,
        seed,
        _maybe_inject_fault,
        lambda: _graph_for(plan, seed),
        scratch=_scratch(),
    )
    if isinstance(result, ArrayRunResult):
        payload["mis_size"] = int(result.mis_mask.sum())
    else:
        payload["mis_size"] = len(result.mis)
    return payload


def table1_payload(
    plan: RunPlan, sizes: Tuple[int, ...], trials: int, seed0: int
) -> Dict[str, Any]:
    """One Table 1 measurement; returns the renderable-cells payload."""
    from ..analysis.tables import build_table1

    _maybe_inject_fault(f"table1-{plan.cache_key()[:20]}-{seed0}")
    exec_plan = plan if plan.n_jobs is None else plan.replace(n_jobs=None)
    start = time.perf_counter()
    table = build_table1(
        sizes=list(sizes),
        plan=exec_plan,
        trials=trials,
        seed0=seed0,
    )
    return {
        "plan": plan.to_dict(),
        "sizes": list(sizes),
        "trials": trials,
        "seed0": seed0,
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
        "wall_clock_s": time.perf_counter() - start,
    }


def payload_to_response(payload: Dict[str, Any]) -> SolveResponse:
    """The deterministic wire response for a solve payload.

    Drops the wall clock (per-request state has no place in cacheable
    bytes); everything kept is a pure function of ``(plan, seed)``.
    """
    return SolveResponse(
        plan=payload["plan"],
        seed=payload["seed"],
        trial_key=payload["trial_key"],
        mis_size=payload["mis_size"],
        row=payload["row"],
    )


def table1_to_response(payload: Dict[str, Any]) -> Table1Response:
    """The deterministic wire response for a table1 payload."""
    return Table1Response(
        plan=payload["plan"],
        sizes=tuple(payload["sizes"]),
        trials=payload["trials"],
        seed0=payload["seed0"],
        title=payload["title"],
        headers=tuple(payload["headers"]),
        rows=tuple(tuple(row) for row in payload["rows"]),
    )


def run_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """The service's pool job: serialized task (with its ``kind``) -> payload.

    Tasks cross the pipe as plain JSON-ready dicts (plans serialized, so
    workers re-validate via :meth:`RunPlan.from_dict` -- the same
    discipline as the HTTP boundary).
    """
    kind = task["kind"]
    plan = RunPlan.from_dict(task["plan"])
    if kind == "solve":
        return solve_payload(plan, task["seed"])
    if kind == "table1":
        return table1_payload(
            plan, tuple(task["sizes"]), task["trials"], task["seed0"]
        )
    raise ValueError(f"unknown task kind {kind!r}")
