"""MIS-as-a-service: the long-running solve server.

Every run in this package is deterministic given ``(RunPlan, seed)``
(:meth:`repro.plan.RunPlan.cache_key` is the promise), which makes the
per-invocation CLI -- re-importing, re-sampling, re-allocating on every
call -- pure waste at production traffic.  This package turns the library
into a traffic-serving system:

* :mod:`~repro.service.schema` -- the versioned wire format: frozen
  request/response dataclasses with canonical JSON and stable
  machine-readable error codes;
* :mod:`~repro.service.cache` -- the plan-keyed LRU result cache (a
  *perfect* cache: hits return the stored response bytes without
  touching the worker pool);
* :mod:`~repro.service.executor` -- the worker-side solve/table1
  functions, reusing :class:`~repro.sim.fast_engine.EngineScratch` and
  sampled graphs across requests;
* :mod:`repro.pool` -- the one worker pool, shared with batch and
  sweeps: kill-isolated workers (one SIGKILLed worker fails one
  request, not the pool), queue-depth backpressure, respawn;
* :mod:`~repro.service.reaper` -- the deadline reaper killing runaway
  jobs;
* :mod:`~repro.service.routes` / :mod:`~repro.service.app` -- the
  ``/v1`` HTTP/JSON endpoints on the stdlib's threaded HTTP server, one
  thread per connection blocking on the pool while a worker solves (no
  new dependencies);
* :mod:`~repro.service.client` -- the stdlib HTTP client the CLI's
  ``--server`` thin-client mode rides.

See ``docs/service.md`` for the endpoint reference and the
cache/backpressure/reaper invariants.
"""

from .app import MISService, ServiceHandle, serve, start_service_thread
from .cache import ResultCache
from .client import ServiceClient, ServiceError, ServiceUnreachable
from .executor import FAULT_ENV, payload_to_response, solve_payload, table1_payload
from ..pool import PoolJob, PoolSaturated, WorkerPool
from .reaper import Reaper
from .schema import (
    ERROR_CODES,
    SERVICE_VERSION,
    ErrorEnvelope,
    JobStatus,
    SchemaError,
    SolveRequest,
    SolveResponse,
    SweepRequest,
    SweepResponse,
    Table1Request,
    Table1Response,
)

__all__ = [
    "ERROR_CODES",
    "FAULT_ENV",
    "SERVICE_VERSION",
    "ErrorEnvelope",
    "JobStatus",
    "MISService",
    "PoolJob",
    "PoolSaturated",
    "Reaper",
    "ResultCache",
    "SchemaError",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "ServiceUnreachable",
    "SolveRequest",
    "SolveResponse",
    "SweepRequest",
    "SweepResponse",
    "Table1Request",
    "Table1Response",
    "WorkerPool",
    "payload_to_response",
    "serve",
    "solve_payload",
    "start_service_thread",
    "table1_payload",
]
