#!/usr/bin/env python3
"""One measured process of the benchmark: set up, run one workload, report.

``run.py`` starts this script once per pass and reads the JSON object it
prints last.  The script imports ``repro`` from the ``src/`` directory next
to ``perfbench/`` and from nowhere else, builds its inputs from
``--seed`` and ``perfbench/workloads.json``, and measures for
``--seconds``::

    python3 perfbench/work.py --workload sparse_1e6 --seed 1 --seconds 15 \\
        --mode plain --budget 150 \\
        --t0 <time.monotonic() of the caller just before it started us>

``--mode`` is one of

* ``plain`` -- the end-to-end pass;
* ``setup`` -- stop after set-up (the probes ``run.py`` takes a median of);
* ``traced`` -- install :mod:`spans` around every layer and add the
  per-layer figures.  Work a worker process would do is invisible from
  here, so sweep trials run in-process (``traced_n_jobs``) and service
  answers are re-solved in-process after the load;
* ``baseline`` -- the traced pass's shape without spans, the reference
  for ``trace.overhead_s``.  No tracemalloc runs in any pass; peak memory
is the kernel's RSS high-water mark.

``--budget`` is how many seconds after ``--t0`` the pass may run.  A trial
workload does not start a trial that is expected to overrun it, and says
so: a slow commit then reports figures over fewer trials instead of being
killed with none.  SIGTERM stops a pass through its normal clean-up, so a
``repro-mis serve`` it started is stopped as well.  Until that server has
ended, its process group is also recorded in
``.perfbench_out/server-<pid>.pgid``, for a caller that has to SIGKILL
this process.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import math
import os
import platform
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: node_avg_awake averages the paper's own algorithms (1 and 2) only: the
#: baselines' node-averaged awake complexity varies far more from seed to
#: seed (luby on gnp-dense: 3.5-5.2), which would hide a changed result.
PAPER_ALGORITHMS = ("sleeping", "fast-sleeping")

#: Failures kept verbatim in the report (the count is always complete).
MAX_ERRORS = 20


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    location = Path(repro.__file__).resolve().parent.parent
    if location != SRC.resolve():
        sys.exit(f"perfbench: repro imported from {location}, not {SRC}")


def environment() -> Dict[str, Any]:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def rss_mb(who: int) -> float:
    """``ru_maxrss`` of this process or its waited-for children, in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def load_plans(spec: Dict[str, Any]) -> List[Any]:
    from repro.plan import RunPlan

    plans = []
    for text in spec["plans"]:
        plan = RunPlan.from_json(text)
        if plan.to_json() != text:
            sys.exit(f"perfbench: plan does not round-trip: {text}")
        plans.append(plan)
    return plans


class Report:
    """What one pass measured; serialized as the last line of output."""

    def __init__(self, setup_s: float) -> None:
        self.setup_s = setup_s
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.layers: Dict[str, float] = {}
        self.notes: List[str] = []
        self.wall_s = 0.0
        self.ops = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def metric(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = value
        self.samples[name] = samples

    def to_dict(self) -> Dict[str, Any]:
        return {
            "setup_s": self.setup_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "metrics": self.metrics,
            "samples": self.samples,
            "layers": self.layers,
            "notes": self.notes,
            "wall_s": self.wall_s,
            "ops": self.ops,
            "env": environment(),
        }


def server_pgid_file(work_pid: int) -> Path:
    """Where the pass with pid ``work_pid`` records its server's group."""
    return OUT / f"server-{work_pid}.pgid"


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def median(values: List[float]) -> float:
    """The median, or 0 when every operation failed (the run is then
    reported incorrect anyway)."""
    return statistics.median(values) if values else 0.0


def paper_mean(rows: List[Tuple[str, float]]) -> Tuple[float, int]:
    values = [value for algorithm, value in rows if algorithm in PAPER_ALGORITHMS]
    return (statistics.fmean(values) if values else 0.0), len(values)


# ----------------------------------------------------------------------
# sparse_1e6 / dense_1e4: in-process trials
# ----------------------------------------------------------------------


def run_trials(args, spec, tracer, t0) -> Report:
    import repro.sim.batch as batch
    from repro.profiling import profile_phases
    from repro.sim.fast_engine import EngineScratch

    plans = load_plans(spec)
    rng = random.Random(f"{args.workload}|{args.seed}")
    scratch = EngineScratch()
    report = Report(time.monotonic() - t0)
    if args.setup_only:
        return report
    walls: List[float] = []
    awake: List[Tuple[str, float]] = []
    phases: Dict[str, float] = {}
    unattributed = 0.0
    # A fixed number of rounds for a given --seconds, not "until the time
    # is up": a faster commit must not run more trials than its parent,
    # or trial_s and peak_rss_mb would compare different work.
    rounds = max(1, round(args.seconds / spec["shape"]["round_s"]))
    trials = [
        (plan, rng.randrange(2**31)) for _ in range(rounds) for plan in plans
    ]
    start = time.perf_counter()
    for plan, seed in trials:
        # The slowest trial so far is the estimate for the next one.
        if walls and time.monotonic() - t0 + max(walls) > args.budget:
            report.notes.append(
                f"stopped after {len(walls)} of {len(trials)} trials: "
                f"another would overrun the {args.budget:.0f} s budget"
            )
            break
        key = f"{plan.algorithm}-{seed}"
        report.attempted += 1
        gc.collect()
        began = time.perf_counter()
        if tracer is None:
            valid, summary = _trial(batch, plan, seed, scratch)
        else:
            with tracer.span("trial", key), profile_phases() as prof:
                valid, summary = _trial(batch, plan, seed, scratch)
        wall = time.perf_counter() - began
        walls.append(wall)
        if tracer is not None:
            for name, seconds in prof.wall_s.items():
                phases[name] = phases.get(name, 0.0) + seconds
            unattributed += wall - sum(prof.wall_s.values())
        if not valid:
            report.fail(f"{key}: invalid MIS or unfinished nodes")
        else:
            awake.append((plan.algorithm, summary["node_averaged_awake"]))
    report.wall_s = time.perf_counter() - start
    report.ops = len(walls)
    report.metric("trial_s", median(walls), len(walls))
    report.metric("trials_per_s", len(walls) / report.wall_s, len(walls))
    report.metric("peak_rss_mb", rss_mb(resource.RUSAGE_SELF), 1)
    mean, count = paper_mean(awake)
    report.metric("node_avg_awake", mean, count)
    if tracer is not None:
        for name in ("sample", "csr_build", "engine", "result_build"):
            report.layers[f"profile.{name}_s"] = phases.pop(name, 0.0)
        if phases:
            report.notes.append(f"profile phases outside the pipeline: {phases}")
        report.layers["profile.unattributed_s"] = unattributed
    return report


def _trial(batch, plan, seed, scratch) -> Tuple[bool, Dict[str, float]]:
    """One trial, from plan to audited result; the timed unit of trial_s."""
    graph = plan.build_graph(seed)
    engine = batch.make_vectorized_engine(
        graph,
        plan.algorithm,
        seed=seed,
        max_rounds=plan.max_rounds,
        rng=plan.rng,
        scratch=scratch,
        result=plan.resolved_result,
        dtype=plan.dtype,
        **plan.protocol_dict(),
    )
    result = engine.run()
    valid = result.is_valid_mis() and result.all_finished
    return valid, result.summary()


# ----------------------------------------------------------------------
# sweep_small: fresh manifests drained through fresh frontiers
# ----------------------------------------------------------------------


def run_sweep_workload(args, spec, tracer, t0) -> Report:
    from repro.sweeps import SweepManifest, TrialFrontier, run_sweep

    shape = spec["shape"]
    plans = load_plans(spec)
    rng = random.Random(f"{args.workload}|{args.seed}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))

    def fresh_frontier(index: int):
        manifest = SweepManifest.expand(
            plans,
            sizes=shape["sizes"],
            trials=shape["trials_per_plan"],
            seed0=rng.randrange(2**20),
            name=f"perfbench-{index}",
        )
        return TrialFrontier.create(workdir / f"drain-{index}", manifest)

    try:
        frontier = fresh_frontier(0)
        report = Report(time.monotonic() - t0)
        if args.setup_only:
            return report
        n_jobs = shape["traced_n_jobs"] if args.in_process else shape["n_jobs"]
        per_trial: List[float] = []
        rates: List[float] = []
        awake: List[Tuple[str, float]] = []
        executed = manifest_trials = sweep_failed = 0
        start = time.perf_counter()
        index = 0
        while True:
            began = time.perf_counter()
            outcome = run_sweep(frontier, n_jobs=n_jobs)
            drain = time.perf_counter() - began
            if outcome.completed:
                per_trial.append(drain / outcome.completed)
                rates.append(outcome.completed / drain)
            report.attempted += len(frontier.manifest)
            executed += outcome.executed
            manifest_trials += len(frontier.manifest)
            sweep_failed += outcome.failed
            for error in outcome.errors:
                report.fail(error)
            if outcome.remaining != outcome.failed:
                report.fail(f"drain {index}: {outcome.remaining} trials left")
            results = dict(frontier.iter_results())
            for key in frontier.manifest.keys():
                payload = results.get(key)
                if payload is None:
                    continue
                row = payload["row"]
                if not row["valid"] or row["undecided"]:
                    report.fail(f"{key}: invalid MIS or undecided nodes")
                    continue
                awake.append((row["algorithm"], row["node_averaged_awake"]))
            report.ops += outcome.completed
            shutil.rmtree(frontier.directory)
            if time.perf_counter() - start >= args.seconds:
                break
            index += 1
            frontier = fresh_frontier(index)
        report.wall_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.metric("trial_s", median(per_trial), len(per_trial))
    # A median over drains, like trial_s: a total over summed drain time
    # lets one slow drain in a noisy stretch move the whole run.
    report.metric("trials_per_s", median(rates), len(rates))
    peak = max(rss_mb(resource.RUSAGE_SELF), rss_mb(resource.RUSAGE_CHILDREN))
    report.metric("peak_rss_mb", peak, 1)
    mean, count = paper_mean(awake)
    report.metric("node_avg_awake", mean, count)
    report.layers["sweeps.failed"] = sweep_failed
    report.layers["sweeps.executed_ratio"] = executed / manifest_trials
    if args.in_process:
        report.notes.append(
            f"drained with run_sweep(n_jobs={n_jobs}): trials "
            f"ran in-process so their spans are visible"
        )
    return report


# ----------------------------------------------------------------------
# service_mixed: a closed loop against `repro-mis serve --workers 1`
# ----------------------------------------------------------------------


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """A ``repro-mis serve`` process group, started and stopped by us."""

    def __init__(self, workers: int) -> None:
        OUT.mkdir(exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        self.log = open(OUT / "server.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(workers)],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True, start_new_session=True,
        )
        self.pgid_file = server_pgid_file(os.getpid())
        self.pgid_file.write_text(str(self.proc.pid))
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"listening on http://([^:]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start (said {line!r})")
            self.host, self.port = match.group(1), int(match.group(2))
            self.wait_healthy()
        except BaseException:
            self.stop()
            raise

    def health(self) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"/v1/health answered {response.status}")
            return json.loads(body)
        finally:
            conn.close()

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                self.health()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """Largest RSS high-water mark over the server and its workers."""
        return max(
            (_vm_hwm_mb(pid) for pid in group_members(self.proc.pid)),
            default=0.0,
        )

    def stop(self) -> None:
        """SIGINT to the server (a clean pool shutdown), then SIGKILL to the
        whole group; returns once every process of the group has ended."""
        pgid = self.proc.pid
        for kill, sig in ((os.kill, signal.SIGINT), (os.killpg, signal.SIGKILL)):
            try:
                kill(pgid, sig)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if self.proc.poll() is not None and not group_members(pgid):
                    break
                time.sleep(0.02)
            else:
                continue
            break
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if not group_members(pgid):
            self.pgid_file.unlink()


class Schedule:
    """The seeded request stream both connections draw from.

    Composition is exact per block of 12 requests (see workloads.json).
    Hits and graph reuses only reference requests already answered, so
    whether they hit the result cache or the worker graph LRU does not
    depend on which connection is faster.
    """

    HIT_WINDOW = 100
    GRAPH_WINDOW = 3

    def __init__(self, rng: random.Random, plans, block: Dict[str, int]):
        self.rng = rng
        self.plans = {(plan.n, plan.algorithm): plan for plan in plans}
        self.algorithms = sorted({plan.algorithm for plan in plans})
        self.block_kinds: List[str] = []
        for kind, count in sorted(block.items()):
            self.block_kinds.extend([kind] * count)
        self.pending: List[str] = []
        self.lock = threading.Lock()
        self.used_seeds: set = set()
        self.answered_keys: List[Tuple[int, str, int]] = []
        self.answered_graphs: List[Tuple[int, int]] = []
        self.graph_algorithms: Dict[Tuple[int, int], set] = {}
        self.next_id = 0

    def _fresh(self, n: int) -> Tuple[str, Tuple[int, str, int]]:
        seed = self.rng.randrange(2**31)
        while seed in self.used_seeds:
            seed = self.rng.randrange(2**31)
        self.used_seeds.add(seed)
        algorithm = self.rng.choice(self.algorithms)
        self.graph_algorithms[(n, seed)] = {algorithm}
        return "fresh", (n, algorithm, seed)

    def next(self) -> Tuple[int, str, Any, int]:
        """``(request id, kind, plan, seed)`` of the next request."""
        with self.lock:
            if not self.pending:
                self.pending = list(self.block_kinds)
                self.rng.shuffle(self.pending)
            kind = self.pending.pop()
            if kind.startswith("fresh_"):
                kind, key = self._fresh(int(kind.split("_")[1]))
            elif kind == "hit" and self.answered_keys:
                key = self.rng.choice(self.answered_keys[-self.HIT_WINDOW:])
            elif kind == "graph_reuse" and self._reusable():
                graph = self.rng.choice(self._reusable())
                unused = [
                    algorithm for algorithm in self.algorithms
                    if algorithm not in self.graph_algorithms[graph]
                ]
                algorithm = self.rng.choice(unused)
                self.graph_algorithms[graph].add(algorithm)
                key = (graph[0], algorithm, graph[1])
            else:  # nothing answered yet to repeat: start a graph instead
                kind, key = self._fresh(min(n for n, _ in self.plans))
            self.next_id += 1
            return self.next_id, kind, self.plans[key[:2]], key[2]

    def _reusable(self) -> List[Tuple[int, int]]:
        return [
            graph for graph in self.answered_graphs[-self.GRAPH_WINDOW:]
            if len(self.graph_algorithms[graph]) < len(self.algorithms)
        ]

    def answered(self, kind: str, plan, seed: int) -> None:
        with self.lock:
            if kind == "hit":
                return
            self.answered_keys.append((plan.n, plan.algorithm, seed))
            if kind == "fresh":
                self.answered_graphs.append((plan.n, seed))


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def run_service(args, spec, tracer, t0) -> Report:
    from repro.service import executor
    from repro.service.schema import SolveRequest, SolveResponse
    from repro.sweeps.manifest import trial_key

    shape = spec["shape"]
    plans = load_plans(spec)
    rng = random.Random(f"{args.workload}|{args.seed}")
    server = Server(workers=1)
    try:
        report = Report(time.monotonic() - t0)
        if args.setup_only:
            return report
        before = server.health()
        schedule = Schedule(rng, plans, shape["block"])
        lock = threading.Lock()
        records: List[Dict[str, Any]] = []
        first_body: Dict[str, bytes] = {}
        deadline = time.perf_counter() + args.seconds

        def client() -> None:
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=120)
            try:
                while time.perf_counter() < deadline:
                    request_id, kind, plan, seed = schedule.next()
                    body = json.dumps(
                        SolveRequest(plan=plan.to_dict(), seed=seed).to_dict()
                    ).encode("utf-8")
                    began = time.perf_counter()
                    try:
                        if tracer is None:
                            status, cache, data = _post(conn, body)
                        else:
                            with tracer.span("service.solve", f"r{request_id}"):
                                status, cache, data = _post(conn, body)
                    except (OSError, http.client.HTTPException) as exc:
                        status, cache, data = 0, None, repr(exc).encode()
                        conn.close()
                        conn = http.client.HTTPConnection(
                            server.host, server.port, timeout=120
                        )
                    latency = time.perf_counter() - began
                    if status == 200:
                        schedule.answered(kind, plan, seed)
                    with lock:
                        records.append({
                            "kind": kind, "plan": plan, "seed": seed,
                            "status": status, "cache": cache, "data": data,
                            "latency": latency, "end": began + latency,
                        })
            finally:
                conn.close()

        start = time.perf_counter()
        threads = [
            # Daemon threads, so a SIGTERM does not wait for them.
            threading.Thread(target=client, name=f"perfbench-conn-{i}",
                             daemon=True)
            for i in range(shape["connections"])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report.wall_s = max(record["end"] for record in records) - start
        after = server.health()
        peak = server.peak_rss_mb()
    finally:
        server.stop()

    computed: List[Dict[str, Any]] = []
    latencies, cold, warm = [], [], []
    refused = hits = unexpected = 0
    awake: List[Tuple[str, float]] = []
    for record in records:
        report.attempted += 1
        plan, seed = record["plan"], record["seed"]
        key = trial_key(plan, seed)
        if record["status"] != 200:
            refused += record["status"] == 429
            report.fail(f"{key}: HTTP {record['status']}")
            continue
        hits += record["cache"] == "hit"
        unexpected += (record["cache"] == "hit") != (record["kind"] == "hit")
        latencies.append(record["latency"])
        (warm if record["kind"] == "hit" else cold).append(record["latency"])
        try:
            response = SolveResponse.from_dict(json.loads(record["data"]))
        except (ValueError, TypeError, KeyError) as exc:
            report.fail(f"{key}: malformed response ({exc})")
            continue
        row = response.row
        if (
            response.trial_key != key
            or not row["valid"]
            or row["undecided"]
            or response.mis_size < 1
        ):
            report.fail(f"{key}: wrong or invalid answer")
            continue
        if key in first_body:
            if record["data"] != first_body[key]:
                report.fail(f"{key}: repeated key answered differently")
                continue
        else:
            first_body[key] = record["data"]
            computed.append({"plan": plan, "seed": seed, "response": response})
            awake.append((plan.algorithm, row["node_averaged_awake"]))
    report.ops = len(latencies)

    # Check answers against in-process solves of the same keys: all of
    # them in the traced pass, a seeded sample of 12 otherwise.
    checked = computed if tracer else rng.sample(computed, min(12, len(computed)))
    exec_ms = []
    for entry in checked:
        plan, seed = entry["plan"], entry["seed"]
        began = time.perf_counter()
        payload = executor.solve_payload(plan, seed)
        exec_ms.append((time.perf_counter() - began) * 1000.0)
        response = entry["response"]
        if payload["row"] != response.row or payload["mis_size"] != response.mis_size:
            report.fail(f"{trial_key(plan, seed)}: differs from in-process solve")
    report.notes.append(
        f"{len(checked)} of {len(computed)} computed answers checked against "
        f"in-process solve_payload; {unexpected} requests hit or missed the "
        f"cache against plan"
    )

    report.metric("trial_s", median(latencies), len(latencies))
    report.metric("trials_per_s", len(latencies) / report.wall_s, len(latencies))
    report.metric("peak_rss_mb", peak, 1)
    mean, count = paper_mean(awake)
    report.metric("node_avg_awake", mean, count)
    if tracer is not None:
        cold_ms = median(cold) * 1000.0
        exec_p50 = median(exec_ms)
        report.layers.update({
            "service.requests": len(records),
            "service.refused": refused,
            "service.cache_hit_ratio": hits / len(records),
            "service.pool_executed": after["pool"]["executed"]
            - before["pool"]["executed"],
            "service.respawns": after["pool"]["respawns"]
            - before["pool"]["respawns"],
            "service.exec_ms": exec_p50,
            "service.overhead_ms": cold_ms - exec_p50,
            "service.solve_p50_ms": median(latencies) * 1000.0,
            "service.solve_p99_ms": _percentile(latencies, 0.99) * 1000.0,
            "service.cold_p50_ms": cold_ms,
            "service.warm_p50_ms": median(warm) * 1000.0,
        })
        report.notes.append(
            f"latency samples: {len(latencies)} all, {len(cold)} cold, "
            f"{len(warm)} warm; service.exec_ms is the median of "
            f"{len(exec_ms)} in-process solve_payload calls"
        )
    return report


def _post(conn: http.client.HTTPConnection, body: bytes):
    conn.request("POST", "/v1/solve", body,
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    return response.status, response.getheader("X-Repro-Cache"), data


def crosscheck(layers: Dict[str, float]) -> str:
    """Outside spans next to the profiler's phases for the same trials."""
    graphs = layers["profile.sample_s"] + layers["profile.csr_build_s"]
    engine = layers["profile.engine_s"] + layers["profile.result_build_s"]
    return (
        f"cross-check: graphs spans {layers['graphs.busy_s']:.3f} s vs "
        f"sample+csr_build phases {graphs:.3f} s; engine spans "
        f"{layers['engine.construct_s'] + layers['engine.run_s']:.3f} s vs "
        f"engine+result_build phases {engine:.3f} s; unattributed "
        f"{layers['profile.unattributed_s']:.3f} s vs result audit spans "
        f"{layers['result.audit_s']:.3f} s"
    )


# ----------------------------------------------------------------------

RUNNERS = {
    "trials": run_trials,
    "sweep": run_sweep_workload,
    "service": run_service,
}


def _stop_on_sigterm(signum, frame) -> None:
    """Unwind through every ``finally``, which stops a started server."""
    raise SystemExit(f"perfbench: stopped by signal {signum}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("plain", "setup", "traced", "baseline"),
        required=True,
    )
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop_on_sigterm)
    args.setup_only = args.mode == "setup"
    args.in_process = args.mode in ("traced", "baseline")

    import_repro()
    with open(HERE / "workloads.json") as handle:
        spec = json.load(handle)["workloads"][args.workload]
    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.install()
    report = RUNNERS[spec["shape"]["kind"]](args, spec, tracer, args.t0)
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans)
        layers.update(report.layers)
        report.layers = layers
        if "profile.unattributed_s" in layers:
            report.notes.append(crosscheck(layers))
        for span in tracer.spans:
            if span.name == "engine.run" and not (span.meta or {}).get(
                "all_finished", True
            ):
                report.fail(f"{span.key}: engine run left nodes unfinished")
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans_{args.workload}_{args.seed}.jsonl"))
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
