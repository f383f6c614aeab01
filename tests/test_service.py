"""Service semantics: cache, backpressure, reaper, kill isolation.

The acceptance properties of the solve server, each proven against a
real server (background thread, real sockets, real worker processes):

* a cache hit returns **byte-identical** payload without re-execution
  (the pool's ``executed`` counter is the spy, mirroring
  ``test_sweep_frontier.py``'s zero-recompute proof);
* queue saturation answers **429 backpressure** instead of queueing
  unboundedly;
* the **reaper** kills a deliberately-hung job at its deadline while
  concurrent requests complete;
* a **SIGKILLed worker** mid-solve fails that one request with a stable
  error envelope, the pool respawns, and ``/v1/health`` is healthy
  after;
* remote rows are **bit-identical** to the local sweep path for the
  same ``(plan, seed)``.

Fault injection rides ``REPRO_SERVICE_FAULT`` (set before the server
starts, so forked workers inherit it): ``hang:<match>`` wedges the
matching trial, ``sigkill:<match>`` kills its worker.
"""

import concurrent.futures
import http.client
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.plan import RunPlan
from repro.service import (
    ServiceClient,
    ServiceError,
    start_service_thread,
)
from repro.service.app import MAX_BODY_BYTES
from repro.service.executor import FAULT_ENV
from repro.sweeps import SweepManifest, execute_trial, trial_key

PLAN = RunPlan(
    algorithm="fast-sleeping", family="gnp-sparse", n=300, seed=0,
    engine="auto",
)


def _raw(base_url, method, path, payload=None):
    """One HTTP exchange, returning ``(status, headers, body bytes)``
    (the client hides headers and bytes; these tests need both)."""
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base_url + path, data=body, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _solve_body(seed, **extra):
    return {"plan": PLAN.to_dict(), "seed": seed, **extra}


def _raw_bytes(server, request):
    """Send ``request`` bytes on a fresh socket and read until the server
    closes it; returns ``(status, decoded JSON body)``."""
    with socket.create_connection(
        (server.host, server.port), timeout=10
    ) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


@pytest.fixture(scope="module")
def server():
    handle = start_service_thread(workers=1, max_queue=8, cache_size=64)
    yield handle
    handle.stop()


class TestEndpoints:
    def test_health(self, server):
        status, _, body = _raw(server.base_url, "GET", "/v1/health")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["service_version"] == 1
        assert health["pool"]["alive_workers"] == 1
        assert health["uptime_s"] > 0

    def test_solve_row_matches_local_sweep_path(self, server):
        client = ServiceClient(server.base_url)
        response = client.solve(PLAN.to_dict(), seed=5)
        local = execute_trial(PLAN, 5)
        assert response.trial_key == local["trial_key"] == trial_key(PLAN, 5)
        assert dict(response.row) == local["row"]
        assert dict(response.plan) == local["plan"]

    def test_cache_hit_is_byte_identical_and_never_reexecutes(self, server):
        pool = server.service.pool
        before = pool.executed
        status1, head1, body1 = _raw(
            server.base_url, "POST", "/v1/solve", _solve_body(42)
        )
        status2, head2, body2 = _raw(
            server.base_url, "POST", "/v1/solve", _solve_body(42)
        )
        assert status1 == status2 == 200
        assert head1["X-Repro-Cache"] == "miss"
        assert head2["X-Repro-Cache"] == "hit"
        assert body1 == body2  # byte-identical, not merely equal
        # The spy: exactly one execution reached a worker.
        assert pool.executed == before + 1
        assert server.service.cache.hits >= 1

    def test_seed_defaults_to_the_plans_seed(self, server):
        client = ServiceClient(server.base_url)
        response = client.solve(PLAN.to_dict())
        assert response.seed == PLAN.seed

    def test_async_solve_job_lifecycle(self, server):
        status, _, body = _raw(
            server.base_url, "POST", "/v1/solve",
            _solve_body(43, mode="async"),
        )
        assert status == 202
        job = json.loads(body)
        assert job["kind"] == "solve"
        client = ServiceClient(server.base_url)
        finished = client.wait_job(job["job_id"], timeout=60)
        assert finished.state == "done"
        assert finished.result["trial_key"] == trial_key(PLAN, 43)
        # The async result equals a sync solve of the same request.
        sync = client.solve(PLAN.to_dict(), seed=43)
        assert finished.result == sync.to_dict()

    def test_sweep_rows_match_local_and_resubmission_is_free(self, server):
        manifest = SweepManifest.expand(
            PLAN, sizes=(24, 32), trials=2, name="svc-sweep"
        )
        client = ServiceClient(server.base_url)
        response = client.sweep(manifest.to_dict(), timeout=120)
        assert response.manifest_key == manifest.manifest_key()
        assert list(response.trial_keys) == manifest.keys()
        local_rows = [
            execute_trial(spec.plan, spec.seed)["row"] for spec in manifest
        ]
        assert [dict(row) for row in response.rows] == local_rows
        # Every (plan, seed) is now cached: a resubmission executes nothing.
        before = server.service.pool.executed
        again = client.sweep(manifest.to_dict(), timeout=120)
        assert [dict(r) for r in again.rows] == local_rows
        assert server.service.pool.executed == before

    def test_table1_matches_local_rendering(self, server):
        from repro.analysis.tables import Table, build_table1

        plan = RunPlan(algorithm="fast-sleeping", family="gnp-sparse")
        client = ServiceClient(server.base_url)
        response = client.table1(plan.to_dict(), sizes=(16, 24), trials=1)
        local = build_table1(sizes=[16, 24], plan=plan, trials=1, seed0=0)
        remote = Table(
            title=response.title,
            headers=list(response.headers),
            rows=[list(row) for row in response.rows],
        )
        assert remote.to_text() == local.to_text()
        assert remote.to_markdown() == local.to_markdown()


class TestErrorEnvelopes:
    @pytest.mark.parametrize(
        "method, path, payload, status, code",
        [
            ("POST", "/v1/solve", "not json", 400, "bad_request"),
            (
                "POST", "/v1/solve",
                {"plan": {}, "bogus_field": 1}, 400, "unknown_field",
            ),
            (
                "POST", "/v1/solve",
                {"plan": {}, "request_version": 9}, 400,
                "unsupported_version",
            ),
            (
                "POST", "/v1/solve",
                {"plan": {"plan_version": 1, "algorithm": "nope"}},
                400, "invalid_plan",
            ),
            (
                "POST", "/v1/solve",
                {"plan": {"plan_version": 1, "algorithm": "luby"}},
                400, "invalid_plan",  # no family/n: nothing to sample
            ),
            (
                "POST", "/v1/sweep",
                {"manifest": {"manifest_version": 9}},
                400, "invalid_manifest",
            ),
            ("GET", "/v1/jobs/job-999999", None, 404, "not_found"),
            ("GET", "/v1/nope", None, 404, "not_found"),
            ("PUT", "/v1/solve", {"plan": {}}, 404, "not_found"),
        ],
    )
    def test_stable_error_codes(
        self, server, method, path, payload, status, code
    ):
        if payload == "not json":
            request = urllib.request.Request(
                server.base_url + path, data=b"{nope", method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    got_status, body = response.status, response.read()
            except urllib.error.HTTPError as exc:
                got_status, body = exc.code, exc.read()
        else:
            got_status, _, body = _raw(server.base_url, method, path, payload)
        envelope = json.loads(body)
        assert got_status == status
        assert envelope["error"]["code"] == code
        assert envelope["service_version"] == 1

    @pytest.mark.parametrize(
        "length",
        [str(MAX_BODY_BYTES + 1), "abc"],
        ids=["above-max-body", "not-an-integer"],
    )
    def test_bad_content_length_gets_envelope(self, server, length):
        # No body follows: an oversize length must be refused before the
        # server tries to read it (a read would hang until the timeout).
        status, envelope = _raw_bytes(
            server,
            f"POST /v1/solve HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n".encode("latin-1"),
        )
        assert status == 400
        assert envelope["error"]["code"] == "bad_request"
        assert envelope["service_version"] == 1

    def test_malformed_http_request_line(self, server):
        import socket

        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"garbage\r\n\r\n")
            data = sock.recv(4096)
        assert b"400" in data.split(b"\r\n", 1)[0]


class TestConnections:
    def test_keep_alive_round_trips_stay_fast(self, server):
        """One connection, the same solve 21 times (all but the first are
        cache hits).  A response sent in two writes with Nagle on stalls
        each exchange on the delayed ACK (~40 ms); one write takes ~0.5 ms."""
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        body = json.dumps(_solve_body(44)).encode()
        headers = {"Content-Type": "application/json"}
        seconds = []
        try:
            for _ in range(21):
                began = time.perf_counter()
                conn.request("POST", "/v1/solve", body, headers)
                response = conn.getresponse()
                response.read()
                seconds.append(time.perf_counter() - began)
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"
                if len(seconds) == 1:
                    sock = conn.sock
            assert conn.sock is sock  # never reconnected
            conn.request(
                "POST", "/v1/solve", body, {**headers, "Connection": "close"}
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()
        assert statistics.median(seconds) < 0.020, seconds

    def test_connect_bursts_are_not_dropped(self, server):
        """16 clients opening a new connection per request: none waits
        out a SYN retransmit (~1 s) behind a full listen backlog."""

        def health(_):
            began = time.perf_counter()
            status, _, _ = _raw(server.base_url, "GET", "/v1/health")
            assert status == 200
            return time.perf_counter() - began

        with concurrent.futures.ThreadPoolExecutor(16) as pool:
            seconds = list(pool.map(health, range(320)))
        assert max(seconds) < 0.9, sorted(seconds)[-5:]

    def test_concurrent_async_jobs_each_finish_once(self, server):
        """More request threads than cores and a short switch interval:
        every async job gets its own id and ends ``done`` with the same
        result as a sync solve."""
        client = ServiceClient(server.base_url)
        expected = client.solve(PLAN.to_dict(), seed=45).to_dict()

        def submit_and_poll(_):
            status, _, body = _raw(
                server.base_url, "POST", "/v1/solve",
                _solve_body(45, mode="async"),
            )
            assert status == 202
            job_id = json.loads(body)["job_id"]
            return job_id, client.wait_job(job_id, poll_s=0.001, timeout=30)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                finished = list(pool.map(submit_and_poll, range(40)))
        finally:
            sys.setswitchinterval(interval)
        assert len({job_id for job_id, _ in finished}) == 40
        for _, status in finished:
            assert status.state == "done"
            assert status.result == expected

    def test_stop_closes_open_connections(self):
        """After ``stop()`` an open keep-alive connection is closed, not
        answered by a thread left behind."""
        handle = start_service_thread(workers=1)
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        try:
            conn.request("GET", "/v1/health")
            assert conn.getresponse().read()
            handle.stop()
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                conn.request("GET", "/v1/health")
                conn.getresponse().read()
        finally:
            conn.close()
            handle.stop()

    def test_service_imports_no_asyncio(self):
        """One concurrency model: threads.  Nothing the service, the pool
        or sweeps import pulls in ``asyncio``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import sys, repro.service, repro.pool, repro.sweeps; "
            "print('asyncio' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestFaults:
    def test_sigkilled_worker_yields_envelope_and_server_survives(
        self, monkeypatch
    ):
        victim = trial_key(PLAN, 7)
        monkeypatch.setenv(FAULT_ENV, f"sigkill:{victim}")
        handle = start_service_thread(workers=1, max_queue=8)
        try:
            client = ServiceClient(handle.base_url)
            with pytest.raises(ServiceError) as info:
                client.solve(PLAN.to_dict(), seed=7)
            assert info.value.status == 502
            assert info.value.code == "worker_killed"
            assert "respawned" in str(info.value)
            # The pool respawned; an untainted seed solves fine.
            response = client.solve(PLAN.to_dict(), seed=8)
            assert response.seed == 8
            health = client.health()
            assert health["status"] == "ok"
            assert health["pool"]["alive_workers"] == 1
            assert health["pool"]["respawns"] == 1
            assert health["pool"]["killed"] == 1
        finally:
            handle.stop()

    def test_reaper_kills_hung_job_while_concurrent_requests_complete(
        self, monkeypatch
    ):
        victim = trial_key(PLAN, 7)
        monkeypatch.setenv(FAULT_ENV, f"hang:{victim}")
        handle = start_service_thread(workers=2, max_queue=8)
        try:
            client = ServiceClient(handle.base_url)
            outcome = {}

            def hung():
                try:
                    client.solve(PLAN.to_dict(), seed=7, deadline_s=0.8)
                    outcome["error"] = None
                except ServiceError as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=hung)
            thread.start()
            time.sleep(0.1)  # let the hung job occupy its worker
            response = client.solve(PLAN.to_dict(), seed=9)
            assert response.seed == 9  # served *while* seed 7 hangs
            thread.join(timeout=30)
            assert not thread.is_alive()
            error = outcome["error"]
            assert error is not None, "hung job was not reaped"
            assert error.status == 504
            assert error.code == "deadline_exceeded"
            health = client.health()
            assert health["reaped"] == 1
            assert health["pool"]["respawns"] == 1
            assert health["pool"]["alive_workers"] == 2
        finally:
            handle.stop()

    def test_backpressure_429_under_saturation(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "hang:-")  # every trial key matches
        handle = start_service_thread(
            workers=1, max_queue=1, default_deadline_s=2.0
        )
        try:
            client = ServiceClient(handle.base_url)

            def fire(seed):
                try:
                    client.solve(PLAN.to_dict(), seed=seed)
                    return "ok"
                except ServiceError as exc:
                    return exc
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                outcomes = list(pool.map(fire, range(60, 64)))
            codes = sorted(
                o.code for o in outcomes if isinstance(o, ServiceError)
            )
            assert "backpressure" in codes
            rejected = [
                o for o in outcomes
                if isinstance(o, ServiceError) and o.code == "backpressure"
            ]
            assert all(o.status == 429 for o in rejected)
            # 429 is shed load, not a failure: the server stays healthy
            # and the reaper clears the wedged job.
            health = client.health()
            assert health["status"] == "ok"
            assert health["reaped"] >= 1
        finally:
            handle.stop()

    def test_backpressure_sets_retry_after(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "hang:-")
        handle = start_service_thread(
            workers=1, max_queue=1, default_deadline_s=1.5
        )
        try:
            saw_retry_after = []

            def fire(seed):
                status, headers, _ = _raw(
                    handle.base_url, "POST", "/v1/solve", _solve_body(seed)
                )
                if status == 429:
                    saw_retry_after.append(headers.get("Retry-After"))
                return status
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                statuses = list(pool.map(fire, range(70, 74)))
            assert 429 in statuses
            assert all(value == "1" for value in saw_retry_after)
        finally:
            handle.stop()

    def test_expired_queued_job_fails_without_executing(self, monkeypatch):
        victim = trial_key(PLAN, 7)
        monkeypatch.setenv(FAULT_ENV, f"hang:{victim}")
        handle = start_service_thread(workers=1, max_queue=4)
        try:
            client = ServiceClient(handle.base_url)
            executed_before = handle.service.pool.executed
            results = {}

            def hung():
                try:
                    client.solve(PLAN.to_dict(), seed=7, deadline_s=1.0)
                except ServiceError as exc:
                    results["hung"] = exc.code

            def queued():
                try:
                    client.solve(PLAN.to_dict(), seed=77, deadline_s=0.2)
                except ServiceError as exc:
                    results["queued"] = exc.code

            a = threading.Thread(target=hung)
            a.start()
            time.sleep(0.1)
            b = threading.Thread(target=queued)
            b.start()
            a.join(timeout=30)
            b.join(timeout=30)
            assert results["hung"] == "deadline_exceeded"
            assert results["queued"] == "deadline_exceeded"
            # The queued job died *in the queue*: only the hung one
            # ever reached a worker.
            assert handle.service.pool.executed == executed_before + 1
        finally:
            handle.stop()
