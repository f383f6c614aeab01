"""The server: one asyncio loop over stdlib streams, no new deps.

:class:`MISService` owns the moving parts (cache, pool, reaper, the
async-job registry); the HTTP layer is a minimal HTTP/1.1 handler on
``asyncio.start_server`` -- request line, headers, ``Content-Length``
body, keep-alive -- because the API is five JSON endpoints and a
framework would be the only new dependency in the repo.  Request
*semantics* live in :mod:`repro.service.routes`; this module only moves
bytes.

Entry points: :func:`serve` (blocking; the CLI ``serve`` subcommand) and
:func:`start_service_thread` (background thread + own loop; tests and
the cold-vs-warm benchmark).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from typing import Any, Dict, Optional, Tuple

from .cache import ResultCache
from ..pool import WorkerPool
from .reaper import Reaper
from .routes import dispatch
from .schema import SERVICE_VERSION, JobStatus

#: Request bodies past this are rejected outright (a manifest of 10^4
#: trials serializes to well under 1 MB).
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    504: "Gateway Timeout",
}


class JobRecord:
    """One async job's lifecycle, queryable via ``GET /v1/jobs/{id}``."""

    def __init__(self, job_id: str, kind: str) -> None:
        self.job_id = job_id
        self.kind = kind
        self.state = "queued"
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, Any]] = None

    def complete(self, status: int, payload: bytes) -> None:
        decoded = json.loads(payload.decode("utf-8"))
        if status == 200:
            self.state = "done"
            self.result = decoded
        else:
            self.state = "failed"
            self.error = decoded

    def status(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            kind=self.kind,
            state=self.state,
            result=self.result,
            error=self.error,
        )


class MISService:
    """The long-running service state behind every endpoint."""

    def __init__(
        self,
        *,
        workers: int = 1,
        max_queue: int = 8,
        cache_size: int = 256,
        default_deadline_s: Optional[float] = None,
        reaper_interval_s: float = 0.05,
    ) -> None:
        self.cache = ResultCache(cache_size)
        self.pool = WorkerPool(workers=workers, max_queue=max_queue)
        self.reaper = Reaper(self.pool, interval_s=reaper_interval_s)
        self.default_deadline_s = default_deadline_s
        self.jobs: Dict[str, JobRecord] = {}
        self._ids = itertools.count(1)
        self._started = time.monotonic()
        self._tasks: set = set()

    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def new_job(self, kind: str) -> JobRecord:
        record = JobRecord(f"job-{next(self._ids)}", kind)
        self.jobs[record.job_id] = record
        return record

    def start_job(self, record: JobRecord, coro) -> None:
        """Run ``coro`` (returning ``(status, body bytes)``) as ``record``."""
        record.state = "running"
        task = asyncio.get_running_loop().create_task(
            self._run_job(record, coro)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_job(self, record: JobRecord, coro) -> None:
        try:
            status, payload = await coro
        except Exception as exc:  # pragma: no cover - job-level backstop
            record.state = "failed"
            record.error = {
                "error": {
                    "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                    "detail": None,
                },
                "service_version": SERVICE_VERSION,
            }
        else:
            record.complete(status, payload)

    def close(self) -> None:
        self.reaper.stop()
        self.pool.close()


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request; ``None`` on clean EOF, ``ValueError``
    on a malformed request."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line {request_line!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ValueError(
            f"malformed Content-Length {headers.get('content-length')!r}"
        ) from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ValueError(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target.split("?", 1)[0], headers, body


def _render(
    status: int, extra: Dict[str, str], body: bytes, keep_alive: bool
) -> bytes:
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in extra.items())
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def _handle_connection(
    service: MISService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                request = await _read_request(reader)
            except (ValueError, asyncio.IncompleteReadError) as exc:
                body = json.dumps(
                    {
                        "error": {
                            "code": "bad_request",
                            "message": str(exc),
                            "detail": None,
                        },
                        "service_version": SERVICE_VERSION,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode("utf-8")
                writer.write(_render(400, {}, body, keep_alive=False))
                await writer.drain()
                return
            if request is None:
                return
            method, path, headers, body = request
            status, extra, payload = await dispatch(
                service, method, path, body
            )
            keep_alive = headers.get("connection", "").lower() != "close"
            writer.write(_render(status, extra, payload, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # pragma: no cover


async def _start_http_server(
    service: MISService, host: str, port: int
) -> "asyncio.base_events.Server":
    return await asyncio.start_server(
        lambda reader, writer: _handle_connection(service, reader, writer),
        host,
        port,
    )


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    **config: Any,
) -> None:
    """Run the service in the foreground until interrupted (CLI entry)."""
    service = MISService(**config)

    async def main() -> None:
        server = await _start_http_server(service, host, port)
        bound = server.sockets[0].getsockname()
        print(
            f"repro service v{SERVICE_VERSION} listening on "
            f"http://{bound[0]}:{bound[1]} "
            f"(workers={service.pool.counters()['workers']}, "
            f"max_queue={service.pool.max_queue}, "
            f"cache={service.cache.capacity})",
            flush=True,
        )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        service.close()


class ServiceHandle:
    """A running background service: ``base_url`` to hit, ``stop()`` to end.

    Returned by :func:`start_service_thread`; usable as a context
    manager.  ``service`` exposes the live internals (cache stats, pool
    counters) to tests.
    """

    def __init__(
        self,
        service: MISService,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        main_task: "asyncio.Task",
        host: str,
        port: int,
    ) -> None:
        self.service = service
        self._thread = thread
        self._loop = loop
        self._main_task = main_task
        self.host = host
        self.port = port
        self.base_url = f"http://{host}:{port}"

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._main_task.cancel)
            self._thread.join(timeout=5.0)
        self.service.close()


def start_service_thread(
    host: str = "127.0.0.1",
    port: int = 0,
    **config: Any,
) -> ServiceHandle:
    """Start the service on a daemon thread; ``port=0`` picks a free port.

    The server (and its event loop) lives entirely on the background
    thread; the returned handle carries the bound ``base_url`` and a
    thread-safe ``stop()``.
    """
    service = MISService(**config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    state: Dict[str, Any] = {}

    async def main() -> None:
        server = await _start_http_server(service, host, port)
        state["port"] = server.sockets[0].getsockname()[1]
        state["main_task"] = asyncio.current_task()
        started.set()
        try:
            async with server:
                await server.serve_forever()
        except asyncio.CancelledError:
            pass

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(main())
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=run, daemon=True, name="repro-service")
    thread.start()
    if not started.wait(timeout=10.0):
        service.close()
        raise RuntimeError(
            f"service failed to bind {host}:{port} within 10s"
        )
    return ServiceHandle(
        service, thread, loop, state["main_task"], host, state["port"]
    )
