#!/usr/bin/env python3
"""The repo benchmark: run one workload and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sparse_1e6 --seed 1 --seconds 15 --trace 0

Workloads, metrics and their bounds are listed in ``BENCHMARK.json``;
what each workload runs is in ``perfbench/workloads.json``.  Every pass
runs in a fresh ``perfbench/work.py`` process:

* ``--trace 0`` runs ``SETUP_PROBES`` set-up-only processes and one
  measured process, and prints the end-to-end metrics; ``setup_s`` is the
  median set-up time over all of them.
* ``--trace 1`` runs the measured pass untraced and then traced, both
  shaped the way the traced pass must run (sweep trials in-process), and
  prints the per-layer metrics of the traced pass plus
  ``trace.overhead_s``, the traced wall minus the untraced wall for the
  same number of operations.

Each pass gets a time budget (``--budget``) that ends before the run's
deadline; a trial workload that would overrun it runs fewer trials and
says so.  A pass that overruns anyway gets SIGTERM, which stops a server
it started, and then SIGKILL.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every operation succeeded with a correct answer; when a pass cannot run
at all (no ``src/`` to import, a crash, a timeout) nothing is printed on
standard output and the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import work

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only processes per untraced run; with the measured process,
#: setup_s is the median of SETUP_PROBES + 1 samples.
SETUP_PROBES = 4

#: Every pass of one run must end within this many seconds.  A run may
#: take 180 s at most, so this leaves room for stopping a pass that
#: overruns: SIGTERM, up to STOP_GRACE_S for its clean-up, then SIGKILL.
RUN_DEADLINE_S = 165.0
STOP_GRACE_S = 8.0

#: Each pass is told to finish this long before the deadline, to leave
#: time for its own exit and for the passes after it to start.
PASS_MARGIN_S = 5.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "trial_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "node_avg_awake": "rounds",
}


class PassFailed(RuntimeError):
    """A work.py process crashed, timed out or printed no report."""


def per_layer_units() -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {
            entry["name"]: entry["unit"]
            for entry in json.load(handle)["per_layer"]
        }


def run_pass(args, deadline: float, mode: str, share: float = 1.0
             ) -> Dict[str, Any]:
    """One work.py process in ``mode``; returns its report.

    The pass may use ``share`` of the time left before ``deadline``.
    """
    t0 = time.monotonic()
    budget = share * (deadline - t0) - PASS_MARGIN_S
    command = [
        sys.executable, str(HERE / "work.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--budget", f"{budget:.1f}",
    ]
    proc = subprocess.Popen(
        command + ["--t0", repr(t0)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise PassFailed(f"{' '.join(command)} timed out") from None
    finally:
        _kill_group(proc.pid)
        _kill_server(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(
            f"{' '.join(command)} exited {proc.returncode} without a report"
        )
    return json.loads(lines[-1])


def _stop(proc: subprocess.Popen) -> None:
    """SIGTERM to an overrunning pass, so that it stops the server it
    started; SIGKILL if it has not ended after STOP_GRACE_S."""
    try:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.communicate(timeout=STOP_GRACE_S)
    except ProcessLookupError:
        proc.communicate()
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()


def _kill_group(pgid: int) -> None:
    """Kill what a pass left behind in its process group (normally nothing)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _kill_server(work_pid: int) -> None:
    """Kill a server that pass ``work_pid`` could not stop, and wait for
    its processes to end.  The record is gone when the pass stopped it."""
    record = work.server_pgid_file(work_pid)
    try:
        pgid = int(record.read_text())
    except (OSError, ValueError):
        return
    _kill_group(pgid)
    give_up = time.monotonic() + STOP_GRACE_S
    while work.group_members(pgid) and time.monotonic() < give_up:
        time.sleep(0.02)
    record.unlink()


def describe(report: Dict[str, Any], label: str) -> None:
    env = report["env"]
    print(
        f"[{label}] nproc={env['nproc']} cpu={env['cpu_model']!r} "
        f"python={env['python']} numpy={env['numpy']} "
        f"ops={report['ops']} wall_s={report['wall_s']:.3f} "
        f"attempted={report['attempted']} failed={report['failed']}"
    )
    for note in report["notes"]:
        print(f"[{label}] {note}")
    for error in report["errors"]:
        print(f"[{label}] FAILED {error}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    with open(HERE / "workloads.json") as handle:
        known = json.load(handle)["workloads"]
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; known: {sorted(known)}",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            plain = run_pass(args, deadline, "baseline", share=0.5)
            traced = run_pass(args, deadline, "traced")
            reports = [plain, traced]
        else:
            probes = [
                run_pass(args, deadline, "setup")
                for _ in range(SETUP_PROBES)
            ]
            measured = run_pass(args, deadline, "plain")
            reports = [measured]
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        describe(plain, "untraced")
        describe(traced, "traced")
        rate = plain["wall_s"] / plain["ops"]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - traced["ops"] * rate
        for name, unit in per_layer_units().items():
            # A layer that does not run on this workload reports zero.
            metrics[name] = {"value": values.get(name, 0), "unit": unit}
    else:
        describe(measured, "measured")
        setups = [probe["setup_s"] for probe in probes] + [measured["setup_s"]]
        values = dict(measured["metrics"], setup_s=statistics.median(setups))
        samples = dict(measured["samples"], setup_s=len(setups))
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:<16} {values[name]:>14.6f} {unit:<7} "
                  f"(n={samples[name]})")
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    print(f"error_rate       {failed / attempted:>14.6f} ratio   "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
