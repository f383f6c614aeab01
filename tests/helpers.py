"""Importable test helpers shared across the suite.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import run_mis`` -- which silently resolved to
``benchmarks/conftest.py`` whenever pytest collected the benchmarks
directory first, breaking the whole suite.  Keeping the helpers in a module
whose name exists exactly once in the repository makes that shadowing
structurally impossible.  ``tests/conftest.py`` re-exports the fixtures.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import networkx as nx
import numpy as np

from repro.api import solve_mis
from repro.sim.phase_loop import MARKING_ALGORITHMS

#: Small graphs covering the structural corner cases: empty, singleton,
#: disconnected, dense, sparse, bipartite, hub-and-spoke.
GRAPH_CASES = [
    ("single", lambda: nx.empty_graph(1)),
    ("two-isolated", lambda: nx.empty_graph(2)),
    ("edge", lambda: nx.path_graph(2)),
    ("triangle", lambda: nx.complete_graph(3)),
    ("path-9", lambda: nx.path_graph(9)),
    ("cycle-10", lambda: nx.cycle_graph(10)),
    ("star-12", lambda: nx.star_graph(11)),
    ("complete-8", lambda: nx.complete_graph(8)),
    ("bipartite-4-5", lambda: nx.complete_bipartite_graph(4, 5)),
    ("grid-4x4", lambda: nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 4))),
    ("gnp-30", lambda: nx.gnp_random_graph(30, 0.15, seed=4)),
    ("gnp-60-sparse", lambda: nx.gnp_random_graph(60, 0.05, seed=8)),
    ("two-components",
     lambda: nx.disjoint_union(nx.cycle_graph(5), nx.complete_graph(4))),
    ("isolated-plus-clique",
     lambda: nx.disjoint_union(nx.empty_graph(3), nx.complete_graph(5))),
]

GRAPH_IDS = [name for name, _ in GRAPH_CASES]
GRAPH_BUILDERS = [builder for _, builder in GRAPH_CASES]


def round_cap(algorithm):
    """``max_rounds`` for an engine test's run of ``algorithm``: 10^4 for
    the marking baselines (ghaffari, abi), whose loops only end when
    marks succeed, so an engine bug that stalls them fails the test
    instead of hanging it; none otherwise.  10^4 is far above any round
    count these runs reach.  A sleeping schedule's ``T(K)`` exceeds any
    such cap up front."""
    return {"max_rounds": 10_000} if algorithm in MARKING_ALGORITHMS else {}


#: How the sleeping engine's calls are split between its numpy path and
#: its scalar kernel: ``"array"`` never runs the kernel, ``"default"``
#: keeps the engine's thresholds, ``"scalar"`` runs every call on it.
KERNEL_MODES = ("array", "default", "scalar")


@contextmanager
def kernel_mode(mode):
    """Run the block with the scalar-kernel thresholds set for ``mode``
    (see :data:`KERNEL_MODES`), restoring them after."""
    import repro.sim.fast_engine as fast_engine

    names = ("SCALAR_MAX_NODES", "SCALAR_MAX_ENTRIES")
    saved = [getattr(fast_engine, name) for name in names]
    limit = {"array": 0, "default": None, "scalar": sys.maxsize}[mode]
    if limit is not None:
        for name in names:
            setattr(fast_engine, name, limit)
    try:
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(fast_engine, name, value)


def run_mis(graph, algorithm, seed=0, **kwargs):
    """Thin wrapper so tests read uniformly."""
    return solve_mis(graph, algorithm=algorithm, seed=seed, **kwargs)


def argsort_csr(n, lo, hi):
    """Reference CSR build for distinct pairs ``lo[i] < hi[i]`` in any
    order: one int64 argsort of all ``2m`` directed keys ``src * n +
    dst``.  Returns ``(src, dst, deg)`` at the library's dtypes (int32,
    int32, int64), the arrays every ``GraphArrays`` build must reproduce.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.argsort(src * np.int64(n) + dst)
    src = src[order].astype(np.int32)
    dst = dst[order].astype(np.int32)
    return src, dst, np.bincount(src, minlength=n).astype(np.int64)
