"""The server: the stdlib's threaded HTTP server, no new deps.

:class:`MISService` owns the moving parts (cache, pool, reaper, the
async-job registry).  The HTTP layer is
:class:`http.server.ThreadingHTTPServer`, because the API is five JSON
endpoints and a framework would be the only new dependency in the repo.
Each connection gets a thread that reads its requests (HTTP/1.1,
keep-alive), calls :func:`~repro.service.routes.dispatch` and, on a
cache miss, blocks in :meth:`repro.pool.PoolJob.wait` while a worker
solves.  Async jobs run on daemon threads.  Request *semantics* live in
:mod:`repro.service.routes`; this module only moves bytes.

Entry points: :func:`serve` (blocking; the CLI ``serve`` subcommand) and
:func:`start_service_thread` (background thread; tests and the
cold-vs-warm benchmark).
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Set, Tuple

from .cache import ResultCache
from ..pool import WorkerPool
from .reaper import Reaper
from .routes import dispatch
from .schema import SERVICE_VERSION, ErrorEnvelope, JobStatus

#: Request bodies past this are rejected before any of it is read (a
#: manifest of 10^4 trials serializes to well under 1 MB).
MAX_BODY_BYTES = 16 * 1024 * 1024


class JobRecord:
    """One async job's lifecycle, queryable via ``GET /v1/jobs/{id}``."""

    def __init__(self, job_id: str, kind: str) -> None:
        self.job_id = job_id
        self.kind = kind
        self.state = "queued"
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, Any]] = None

    def complete(self, status: int, payload: bytes) -> None:
        # ``GET /v1/jobs/{id}`` reads from another thread: the outcome is
        # in place before the state says so.
        decoded = json.loads(payload.decode("utf-8"))
        if status == 200:
            self.result = decoded
            self.state = "done"
        else:
            self.error = decoded
            self.state = "failed"

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

    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def new_job(self, kind: str) -> JobRecord:
        record = JobRecord(f"job-{next(self._ids)}", kind)
        self.jobs[record.job_id] = record
        return record

    def start_job(
        self, record: JobRecord, compute: Callable[[], Tuple[int, Any, bytes]]
    ) -> None:
        """Run ``compute()`` (returning a ``dispatch`` response triple) as
        ``record`` on a daemon thread."""
        record.state = "running"
        threading.Thread(
            target=_run_job, args=(record, compute), daemon=True,
            name=f"repro-{record.job_id}",
        ).start()

    def close(self) -> None:
        self.reaper.stop()
        self.pool.close()


def _run_job(
    record: JobRecord, compute: Callable[[], Tuple[int, Any, bytes]]
) -> None:
    try:
        status, _, payload = compute()
    except Exception as exc:  # pragma: no cover - job-level backstop
        status, payload = 500, ErrorEnvelope(
            code="internal", message=f"{type(exc).__name__}: {exc}"
        ).to_json().encode("utf-8")
    record.complete(status, payload)


class _Handler(BaseHTTPRequestHandler):
    """One connection's thread: HTTP/1.1 keep-alive, every method to
    :func:`dispatch`."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def __getattr__(self, name: str) -> Any:
        # http.server looks up ``do_<METHOD>``: every method reaches
        # dispatch, which answers an unknown one with a 404 envelope.
        if name.startswith("do_"):
            return self._handle
        raise AttributeError(name)

    def _handle(self) -> None:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            self.send_error(400, f"malformed Content-Length {header!r}")
            return
        if length < 0 or length > MAX_BODY_BYTES:
            self.send_error(
                400,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
            return
        body = self.rfile.read(length)
        if len(body) < length:
            self.send_error(
                400, f"request body ended after {len(body)} of {length} bytes"
            )
            return
        status, extra, payload = dispatch(
            self.server.service,
            self.command.upper(),
            self.path.split("?", 1)[0],
            body,
        )
        self._send(status, extra, payload)

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Any = None
    ) -> None:
        """A malformed request gets the ``bad_request`` envelope (not
        http.server's HTML page), and the connection closes."""
        self.close_connection = True
        body = ErrorEnvelope(
            code="bad_request", message=message or self.responses[code][0]
        ).to_json().encode("utf-8")
        self._send(400, {}, body)

    def _send(self, status: int, extra: Dict[str, str], body: bytes) -> None:
        # Status line, headers and body leave in one write.  Under Nagle
        # a separate body write waits on the client's delayed ACK of the
        # headers, tens of ms per keep-alive request.
        head = [
            f"HTTP/1.1 {status} {self.responses[status][0]}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if self.close_connection else 'keep-alive'}",
        ]
        head.extend(f"{name}: {value}" for name, value in extra.items())
        self.wfile.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )

    def log_message(self, format: str, *args: Any) -> None:
        """No stderr line per request."""


class _Server(ThreadingHTTPServer):
    """The listening socket; connection threads reach ``service`` here."""

    #: The listen backlog.  At socketserver's default of 5, a burst of
    #: clients that each open a new connection overflows it, and every
    #: dropped connect waits out a ~1 s SYN retransmit.
    request_queue_size = 100

    def __init__(self, service: MISService, host: str, port: int) -> None:
        self.service = service
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__((host, port), _Handler)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening and end every open connection: a thread parked
        on an idle keep-alive connection would otherwise go on answering
        from a closed pool."""
        super().server_close()
        with self._connections_lock:
            for request in self._connections:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client already closed it
                    pass


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    **config: Any,
) -> None:
    """Run the service in the foreground until interrupted (CLI entry)."""
    service = MISService(**config)
    try:
        with _Server(service, host, port) as server:
            bound = server.server_address
            print(
                f"repro service v{SERVICE_VERSION} listening on "
                f"http://{bound[0]}:{bound[1]} "
                f"(workers={service.pool.counters()['workers']}, "
                f"max_queue={service.pool.max_queue}, "
                f"cache={service.cache.capacity})",
                flush=True,
            )
            server.serve_forever()
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
        server: _Server,
        thread: threading.Thread,
        host: str,
    ) -> None:
        self.service = service
        self._server = server
        self._thread = thread
        self.host = host
        self.port = server.server_address[1]
        self.base_url = f"http://{host}:{self.port}"

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def stop(self) -> None:
        if self._thread.is_alive():
            self._server.shutdown()
            self._thread.join(timeout=5.0)
        self._server.server_close()
        self.service.close()


def start_service_thread(
    host: str = "127.0.0.1",
    port: int = 0,
    **config: Any,
) -> ServiceHandle:
    """Start the service on a daemon thread; ``port=0`` picks a free port.

    The socket is bound before this returns (a bind error raises here);
    the returned handle carries the bound ``base_url`` and a thread-safe
    ``stop()``.
    """
    service = MISService(**config)
    try:
        server = _Server(service, host, port)
    except BaseException:
        service.close()
        raise
    thread = threading.Thread(
        target=server.serve_forever, daemon=True, name="repro-service"
    )
    thread.start()
    return ServiceHandle(service, server, thread, host)
