#!/usr/bin/env python
"""Perf-regression smoke: a fixed config vs the committed baseline.

Runs a pinned set of measurements (~15s wall-clock total) and compares
each against the committed ``benchmarks/artifacts/BENCH_perf_smoke.json``:

* ``table1_auto`` -- the historical 4-algorithm Table 1 (n = 300,
  10 trials) on ``engine="auto"`` (vectorized sleeping algorithms +
  rank baselines);
* ``sleeping_1e4_batched`` -- a 10^4-node Algorithm 1 sweep under the
  batched (v2) RNG stream;
* ``luby_1e4_batched`` -- the same scale on the vectorized Luby engine;
* ``ghaffari_1e4_batched`` -- the same scale on the vectorized marking
  engine (ghaffari/abi, new in PR 4), guarding the last two rows of the
  engine matrix against a silent fallback to the generator path;
* ``sleeping_1e5_arrays`` -- a single 10^5-node Algorithm 1 trial on the
  fully array-native pipeline (``graph_source="arrays"`` +
  ``result="arrays"``), guarding the direct-to-CSR sampling and
  struct-of-arrays result wins;
* ``gnp_1e6_sampler_batched`` -- a 10^6-node gnp-sparse sample on the v2
  (``graph_rng="batched"``) vectorized sampling stream, guarding the
  whole-array geometric-skip sampler and the chunked
  ``from_distinct_pair_chunks`` CSR build that break the 10^6 barrier
  (the full 10^6 *pipeline* comparison is ``bench_scale.py``'s
  ``test_sleeping_pipeline[1e6]``, outside the smoke budget);
* ``fast_sleeping_dense_2e3_batched`` / ``luby_dense_2e3_batched`` -- a
  2-trial sweep of Algorithm 2 and of Luby on ``gnp-dense`` n = 2000
  (~2x10^6 directed edges, both streams batched), the only configs whose
  engine time is edge-bound rather than node-bound: in-call row
  filtering and row reads in the recursion, the carried edge frontier
  of the phase loop;
* ``gnp_dense_4e3_stream_build`` -- a ``gnp_arrays_v2(4000, 0.5)``
  build (~4x10^6 pairs): the only row whose graph spans more than one
  ``GNP_V2_CHUNK`` refill, so the chunked CSR build keeps and scatters
  several chunks and the run-length row decode crosses chunk
  boundaries.  Its plan records the family, size and seed.

(The sweep-based measurements run on the sweep defaults --
``graph_source="auto"``/``result="auto"`` -- so a change that silently
knocks sweeps off the array-native path shows up here too.)

Raw wall-clock is not comparable across machines (the baseline is written
on whatever machine last ran ``--write``; CI runners are slower and
noisier), so the gate compares **calibrated units**: each measurement is
divided by the time a fixed CPU workload (Python-loop + numpy passes,
mirroring the engines' profile) takes in the same process.  Each
measurement is best-of-3.

Usage::

    python benchmarks/perf_smoke.py --write   # refresh the baseline
    python benchmarks/perf_smoke.py --check   # CI: fail on >2x slowdown

The 2x tolerance on calibrated units absorbs residual variance; a real
regression (e.g. un-vectorizing a baseline is >5x) still trips it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

ARTIFACT = Path(__file__).resolve().parent / "artifacts" / "BENCH_perf_smoke.json"

#: Fail --check when a calibrated measurement exceeds baseline * TOLERANCE.
TOLERANCE = 2.0

#: Repeat each measurement and keep the fastest, damping scheduler noise.
REPEATS = 3


def _best_of(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _calibrate() -> float:
    """Seconds for a fixed CPU workload shaped like the engines' profile
    (Python-level RNG loop + numpy index/bincount passes)."""

    def workload():
        rng = random.Random(0)
        acc = 0.0
        for _ in range(150_000):
            acc += rng.random()
        a = np.arange(1_000_000, dtype=np.int64) % 4096
        for _ in range(8):
            np.bincount(a).cumsum()
        return acc

    return _best_of(workload)


def _plans() -> dict:
    """The validated :class:`RunPlan` behind each pinned measurement.

    One plan per measurement name; the canonical serializations are
    embedded as the artifact's ``config.plans`` block, so the committed
    baseline states exactly which knob configuration each calibrated
    unit was measured under (and ``check_artifacts.py`` re-validates
    them against the current registries).
    """
    from repro.plan import RunPlan

    sweep_1e4 = RunPlan(
        family="gnp-sparse", engine="vectorized", rng="batched",
        result="auto",
    )
    dense_2e3 = sweep_1e4.replace(family="gnp-dense", graph_rng="batched")
    return {
        "table1_auto": RunPlan(family="gnp-sparse", engine="auto"),
        "sleeping_1e4_batched": sweep_1e4.replace(algorithm="sleeping"),
        "luby_1e4_batched": sweep_1e4.replace(algorithm="luby"),
        "ghaffari_1e4_batched": sweep_1e4.replace(algorithm="ghaffari"),
        "sleeping_1e5_arrays": sweep_1e4.replace(
            algorithm="sleeping", graph_source="arrays", result="arrays",
        ),
        "gnp_1e6_sampler_batched": RunPlan(
            family="gnp-sparse", n=1_000_000, seed=11,
            graph_source="arrays", graph_rng="batched",
        ),
        "fast_sleeping_dense_2e3_batched": dense_2e3.replace(
            algorithm="fast-sleeping"
        ),
        "luby_dense_2e3_batched": dense_2e3.replace(algorithm="luby"),
        "gnp_dense_4e3_stream_build": RunPlan(
            family="gnp-dense",
            n=4_000,
            seed=11,
            graph_source="arrays",
            graph_rng="batched",
        ),
    }


def _measurements(plans: dict) -> dict:
    from repro.analysis.complexity import sweep
    from repro.analysis.tables import build_table1
    from repro.graphs.arrays import gnp_arrays_v2

    stream_plan = plans["gnp_dense_4e3_stream_build"]

    # Warm imports and caches before timing anything.
    build_table1(sizes=(64,), trials=1, algorithms=("luby",))

    return {
        "table1_auto": _best_of(
            lambda: build_table1(
                sizes=(300,), plan=plans["table1_auto"], trials=10, seed0=1,
                algorithms=("luby", "greedy", "sleeping", "fast-sleeping"),
            )
        ),
        "sleeping_1e4_batched": _best_of(
            lambda: sweep(
                plan=plans["sleeping_1e4_batched"],
                sizes=(10_000,), trials=2, seed0=11,
            )
        ),
        "luby_1e4_batched": _best_of(
            lambda: sweep(
                plan=plans["luby_1e4_batched"],
                sizes=(10_000,), trials=2, seed0=11,
            )
        ),
        "ghaffari_1e4_batched": _best_of(
            lambda: sweep(
                plan=plans["ghaffari_1e4_batched"],
                sizes=(10_000,), trials=2, seed0=11,
            )
        ),
        "sleeping_1e5_arrays": _best_of(
            lambda: sweep(
                plan=plans["sleeping_1e5_arrays"],
                sizes=(100_000,), trials=1, seed0=11,
            )
        ),
        "gnp_1e6_sampler_batched": _best_of(
            lambda: plans["gnp_1e6_sampler_batched"].build_graph()
        ),
        "fast_sleeping_dense_2e3_batched": _best_of(
            lambda: sweep(
                plan=plans["fast_sleeping_dense_2e3_batched"],
                sizes=(2_000,), trials=2, seed0=11,
            )
        ),
        "luby_dense_2e3_batched": _best_of(
            lambda: sweep(
                plan=plans["luby_dense_2e3_batched"],
                sizes=(2_000,), trials=2, seed0=11,
            )
        ),
        "gnp_dense_4e3_stream_build": _best_of(
            lambda: gnp_arrays_v2(stream_plan.n, 0.5, seed=stream_plan.seed)
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--write", action="store_true", help="measure and write the baseline"
    )
    mode.add_argument(
        "--check", action="store_true",
        help="measure and fail (exit 1) on >2x slowdown vs the baseline",
    )
    args = parser.parse_args(argv)

    plans = _plans()
    calibration = _calibrate()
    print(f"{'calibration':32s} {calibration:8.3f}s")
    raw = {k: round(v, 3) for k, v in _measurements(plans).items()}
    units = {k: round(v / calibration, 3) for k, v in raw.items()}
    for key in raw:
        print(f"{key:32s} {raw[key]:8.3f}s  = {units[key]:7.3f} units")

    if args.write:
        ARTIFACT.parent.mkdir(exist_ok=True)
        ARTIFACT.write_text(
            json.dumps(
                {
                    "bench": "perf_smoke",
                    "config": {
                        "plans": {
                            key: plan.to_dict()
                            for key, plan in sorted(plans.items())
                        },
                    },
                    "tolerance": TOLERANCE,
                    "calibration_s": round(calibration, 3),
                    "wall_clock_s": raw,
                    "measurements": units,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"baseline written -> {ARTIFACT}")
        return 0

    if not ARTIFACT.exists():
        print(f"error: no committed baseline at {ARTIFACT}", file=sys.stderr)
        return 2
    baseline = json.loads(ARTIFACT.read_text())["measurements"]
    failed = False
    for key, value in units.items():
        base = baseline.get(key)
        if base is None:
            print(f"{key}: no baseline entry (run --write)", file=sys.stderr)
            failed = True
            continue
        ratio = value / base
        verdict = "OK" if ratio <= TOLERANCE else "REGRESSION"
        print(f"{key:32s} {value:8.3f} units vs baseline {base:8.3f} "
              f"({ratio:.2f}x)  {verdict}")
        if ratio > TOLERANCE:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
