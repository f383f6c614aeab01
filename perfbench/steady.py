#!/usr/bin/env python3
"""Run workloads over several seeds and report the spread of each metric.

    python3 perfbench/steady.py --seeds 1-10 [--workload sparse_1e6 ...]
        [--out perfbench/steadiness.json]

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  A spread at or under a third of
the bound is marked ``ok``; ``setup_s`` has no spread requirement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}

    results: Dict[str, Any] = {}
    status = 0
    for workload in args.workload or names:
        runs: List[Dict[str, Any]] = []
        for seed in seed_range(args.seeds):
            began = time.monotonic()
            proc = subprocess.run(
                bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                ],
                cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["run_s"] = time.monotonic() - began
            runs.append(result)
            print(f"{workload} seed {seed}: {result['run_s']:.1f} s, "
                  f"correct={result['correct']}", flush=True)
        table = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            if len(values) < 2:
                continue
            row = spread(values)
            row["bound"] = bound
            row["values"] = values
            table[name] = row
            verdict = "ok" if row["spread"] <= bound / 3 else "WIDE"
            if name == "setup_s":
                verdict = "-"
            print(f"  {name:<16} median={row['median']:.6g} "
                  f"spread={row['spread']:.4f} bound={bound} {verdict}")
        results[workload] = {
            "runs": len(runs),
            "run_s_max": max((run["run_s"] for run in runs), default=0.0),
            "metrics": table,
        }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
