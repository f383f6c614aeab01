"""The ``/v1`` endpoint handlers.

:func:`dispatch` maps ``(method, path, body)`` to
``(status, extra headers, body bytes)`` -- pure request semantics, no
socket code (that lives in :mod:`repro.service.app`, and tests can call
``dispatch`` directly).  Invariants enforced here:

* every plan and manifest crossing the boundary is **re-validated**
  (:meth:`RunPlan.from_dict` / :meth:`SweepManifest.from_dict`) -- the
  server never trusts client-side validation;
* the cache check happens **before** the pool -- a warm ``(plan, seed)``
  never touches a worker, and the stored bytes are returned verbatim
  (``X-Repro-Cache: hit``);
* every failure is an :class:`ErrorEnvelope` with a stable ``code``;
  the HTTP status is derived from the code via :data:`CODE_STATUS`, so
  the two can never disagree.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..plan import RunPlan
from ..pool import PoolSaturated
from ..sweeps.manifest import SweepManifest
from .cache import solve_cache_key, table1_cache_key
from .executor import payload_to_response, run_task, table1_to_response
from .schema import (
    SERVICE_VERSION,
    ErrorEnvelope,
    JobStatus,
    SchemaError,
    SolveRequest,
    SweepRequest,
    SweepResponse,
    Table1Request,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .app import MISService

#: HTTP status for each stable error code (one mapping, no drift).
CODE_STATUS = {
    "bad_request": 400,
    "unknown_field": 400,
    "unsupported_version": 400,
    "invalid_plan": 400,
    "invalid_manifest": 400,
    "not_found": 404,
    "backpressure": 429,
    "deadline_exceeded": 504,
    "worker_killed": 502,
    "solve_failed": 500,
    "internal": 500,
}

Response = Tuple[int, Dict[str, str], bytes]

#: How long a sweep job waits between submit retries when the pool is
#: saturated (sweeps yield to interactive solves instead of 429ing).
_SWEEP_RETRY_S = 0.05


def _error(code: str, message: str, detail: Optional[str] = None) -> Response:
    body = (
        ErrorEnvelope(code=code, message=message, detail=detail)
        .to_json()
        .encode("utf-8")
    )
    return CODE_STATUS[code], {}, body


def _ok(body_bytes: bytes, headers: Optional[Dict[str, str]] = None) -> Response:
    return 200, dict(headers or {}), body_bytes


def _outcome_error(outcome: Tuple) -> Response:
    """Map a pool job's ``("error", code, message)`` outcome to a response."""
    _, code, message = outcome[:3]
    if code not in CODE_STATUS:  # pragma: no cover - defensive
        code, message = "internal", f"{code}: {message}"
    response = _error(code, message)
    if code == "backpressure":
        response[1]["Retry-After"] = "1"
    return response


def _parse_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(
            "bad_request", f"request body is not valid JSON: {exc}"
        ) from None


def _plan_from(data: Any, *, require_n: bool = True) -> RunPlan:
    """Re-validate a serialized plan; it must carry a graph spec (the
    server builds graphs -- there is no way to ship a graph object).
    ``table1`` plans skip the ``n`` requirement (sizes are the grid)."""
    try:
        plan = RunPlan.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise SchemaError("invalid_plan", f"plan rejected: {exc}") from None
    if plan.family is None or (require_n and plan.n is None):
        raise SchemaError(
            "invalid_plan",
            "plan must carry family= (and n=, except for table1) -- the "
            "server samples the seeded graph; plans for caller-supplied "
            "graphs cannot be solved remotely",
        )
    return plan


async def _solve_sync(
    service: "MISService",
    plan: RunPlan,
    seed: int,
    deadline_s: Optional[float],
) -> Response:
    """The shared cache-then-pool solve path (sync mode and job bodies)."""
    key = solve_cache_key(plan.cache_key(), seed)
    cached = service.cache.get(key)
    if cached is not None:
        return _ok(cached, {"X-Repro-Cache": "hit"})
    try:
        outcome = await service.pool.submit_async(
            run_task,
            {"kind": "solve", "plan": plan.to_dict(), "seed": seed},
            deadline_s=deadline_s,
        )
    except PoolSaturated as exc:
        status, headers, payload = _error("backpressure", str(exc))
        headers["Retry-After"] = "1"
        return status, headers, payload
    if outcome[0] != "ok":
        return _outcome_error(outcome)
    body = payload_to_response(outcome[1]).to_json().encode("utf-8")
    service.cache.put(key, body)
    return _ok(body, {"X-Repro-Cache": "miss"})


async def _handle_solve(service: "MISService", body: bytes) -> Response:
    request = SolveRequest.from_dict(_parse_body(body))
    plan = _plan_from(request.plan)
    seed = request.seed
    if seed is None:
        seed = plan.seed if plan.seed is not None else 0
    deadline_s = (
        request.deadline_s
        if request.deadline_s is not None
        else service.default_deadline_s
    )
    if request.mode == "async":
        record = service.new_job("solve")

        async def run() -> Tuple[int, bytes]:
            status, _, payload = await _solve_sync(
                service, plan, seed, deadline_s
            )
            return status, payload

        service.start_job(record, run())
        return 202, {}, record.status().to_json().encode("utf-8")
    return await _solve_sync(service, plan, seed, deadline_s)


async def _handle_table1(service: "MISService", body: bytes) -> Response:
    request = Table1Request.from_dict(_parse_body(body))
    plan = _plan_from(request.plan, require_n=False)
    deadline_s = (
        request.deadline_s
        if request.deadline_s is not None
        else service.default_deadline_s
    )

    async def compute() -> Response:
        key = table1_cache_key(
            plan.cache_key(), request.sizes, request.trials, request.seed0
        )
        cached = service.cache.get(key)
        if cached is not None:
            return _ok(cached, {"X-Repro-Cache": "hit"})
        try:
            outcome = await service.pool.submit_async(
                run_task,
                {
                    "kind": "table1",
                    "plan": plan.to_dict(),
                    "sizes": list(request.sizes),
                    "trials": request.trials,
                    "seed0": request.seed0,
                },
                deadline_s=deadline_s,
            )
        except PoolSaturated as exc:
            response = _error("backpressure", str(exc))
            response[1]["Retry-After"] = "1"
            return response
        if outcome[0] != "ok":
            return _outcome_error(outcome)
        body_bytes = table1_to_response(outcome[1]).to_json().encode("utf-8")
        service.cache.put(key, body_bytes)
        return _ok(body_bytes, {"X-Repro-Cache": "miss"})

    if request.mode == "async":
        record = service.new_job("table1")

        async def run() -> Tuple[int, bytes]:
            status, _, payload = await compute()
            return status, payload

        service.start_job(record, run())
        return 202, {}, record.status().to_json().encode("utf-8")
    return await compute()


async def _handle_sweep(service: "MISService", body: bytes) -> Response:
    request = SweepRequest.from_dict(_parse_body(body))
    try:
        manifest = SweepManifest.from_dict(request.manifest)
    except (ValueError, TypeError, KeyError) as exc:
        raise SchemaError(
            "invalid_manifest", f"manifest rejected: {exc}"
        ) from None
    deadline_s = (
        request.deadline_s
        if request.deadline_s is not None
        else service.default_deadline_s
    )
    record = service.new_job("sweep")

    async def run() -> Tuple[int, bytes]:
        rows = []
        keys = []
        for spec in manifest:
            while True:
                status, _, payload = await _solve_sync(
                    service, spec.plan, spec.seed, deadline_s
                )
                if status != 429:
                    break
                await asyncio.sleep(_SWEEP_RETRY_S)
            if status != 200:
                return status, payload
            solved = json.loads(payload.decode("utf-8"))
            keys.append(solved["trial_key"])
            rows.append(solved["row"])
        response = SweepResponse(
            manifest_key=manifest.manifest_key(),
            name=manifest.name,
            trial_keys=tuple(keys),
            rows=tuple(rows),
        )
        return 200, response.to_json().encode("utf-8")

    service.start_job(record, run())
    return 202, {}, record.status().to_json().encode("utf-8")


def _handle_job(service: "MISService", job_id: str) -> Response:
    record = service.jobs.get(job_id)
    if record is None:
        return _error(
            "not_found",
            f"unknown job {job_id!r} (jobs live in server memory; a "
            f"restarted server forgets them)",
        )
    return _ok(record.status().to_json().encode("utf-8"))


def _handle_health(service: "MISService") -> Response:
    body = json.dumps(
        {
            "status": "ok",
            "service_version": SERVICE_VERSION,
            "uptime_s": service.uptime_s(),
            "max_queue": service.pool.max_queue,
            "pool": service.pool.counters(),
            "cache": service.cache.stats(),
            "reaped": service.reaper.reaped,
            "jobs": len(service.jobs),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return _ok(body)


async def dispatch(
    service: "MISService", method: str, path: str, body: bytes
) -> Response:
    """Route one request; always returns a well-formed response triple."""
    try:
        if method == "GET" and path == "/v1/health":
            return _handle_health(service)
        if method == "GET" and path.startswith("/v1/jobs/"):
            return _handle_job(service, path[len("/v1/jobs/"):])
        if method == "POST" and path == "/v1/solve":
            return await _handle_solve(service, body)
        if method == "POST" and path == "/v1/sweep":
            return await _handle_sweep(service, body)
        if method == "POST" and path == "/v1/table1":
            return await _handle_table1(service, body)
        return _error(
            "not_found",
            f"no route for {method} {path}; endpoints: POST /v1/solve, "
            f"POST /v1/sweep, POST /v1/table1, GET /v1/jobs/{{id}}, "
            f"GET /v1/health",
        )
    except SchemaError as exc:
        return _error(exc.code, str(exc))
    except Exception as exc:  # pragma: no cover - the never-crash backstop
        return _error("internal", f"{type(exc).__name__}: {exc}")
