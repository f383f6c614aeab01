"""The per-process graph cache shared by sweep trials and service solves.

Every plan of a sweep reuses each ``(family, n, seed)`` graph, so only the
first plan to reach a seed samples it; the cache is bounded by bytes
(``GRAPH_CACHE_BYTES``), not by a count of graphs.  A warm cache changes
allocation only: a sweep's artifacts are byte-identical, apart from the
wall clock, whether its graphs came from the cache or were sampled.
"""

import json

import networkx as nx
import pytest

import repro.sweeps.runner as runner
from repro.graphs.arrays import make_family_arrays
from repro.plan import RunPlan
from repro.sweeps import SweepManifest, TrialFrontier, run_sweep

PLANS = [
    RunPlan(
        algorithm=algorithm, family="gnp-sparse", rng="batched",
        graph_rng="batched", result="arrays",
    )
    for algorithm in ("fast-sleeping", "luby", "sleeping")
]


@pytest.fixture(autouse=True)
def cold_cache():
    runner._GRAPHS.clear()
    yield
    runner._GRAPHS.clear()


def artifact_bytes(frontier):
    """Each result artifact's bytes with its wall clock blanked."""
    out = {}
    for path in sorted((frontier.directory / "results").glob("*.json")):
        payload = json.loads(path.read_text())
        assert payload["wall_clock_s"] >= 0
        payload["wall_clock_s"] = None
        out[path.name] = json.dumps(payload, sort_keys=True).encode()
    return out


def drain(tmp_path, name):
    manifest = SweepManifest.expand(
        PLANS, sizes=(40, 90), trials=3, name="cache"
    )
    frontier = TrialFrontier.create(tmp_path / name, manifest)
    report = run_sweep(frontier)
    assert report.all_done and report.failed == 0
    return artifact_bytes(frontier)


def test_artifacts_identical_cold_warm_and_uncached(tmp_path, monkeypatch):
    builds = []
    build_graph = RunPlan.build_graph

    def counting_build(plan, seed=None):
        builds.append((plan.n, seed))
        return build_graph(plan, seed)

    monkeypatch.setattr(RunPlan, "build_graph", counting_build)
    cold = drain(tmp_path, "cold")
    # Three plans share each of the six graphs: each is sampled once.
    assert len(builds) == 6 and len(set(builds)) == 6
    warm = drain(tmp_path, "warm")
    assert len(builds) == 6
    monkeypatch.setattr(runner, "GRAPH_CACHE_BYTES", 0)
    runner._GRAPHS.clear()
    uncached = drain(tmp_path, "uncached")
    assert len(builds) == 6 + 18 and len(runner._GRAPHS) == 0
    assert len(cold) == 18
    assert cold == warm == uncached


def cached_seeds():
    return [key[2] for key in runner._GRAPHS._graphs]


def test_budget_bounds_bytes_least_recently_used_first(monkeypatch):
    plan = PLANS[0].replace(n=300)
    sizes = [plan.build_graph(seed).nbytes() for seed in range(3)]
    # Room for any two of the three graphs, not for all three.
    monkeypatch.setattr(runner, "GRAPH_CACHE_BYTES", sum(sizes) - 1)
    first = runner._graph_for(plan, 0)
    runner._graph_for(plan, 1)
    assert runner._graph_for(plan, 0) is first  # 0 is now most recent
    runner._graph_for(plan, 2)  # evicts 1, the least recently used
    assert cached_seeds() == [0, 2]
    assert runner._GRAPHS.nbytes == sizes[0] + sizes[2]
    assert runner._graph_for(plan, 0) is first


def test_graph_larger_than_budget_is_not_kept(monkeypatch):
    plan = PLANS[0].replace(n=300)
    monkeypatch.setattr(runner, "GRAPH_CACHE_BYTES", 100)
    graph = runner._graph_for(plan, 0)
    assert graph.nbytes() > 100
    assert len(runner._GRAPHS) == 0 and runner._GRAPHS.nbytes == 0


def test_a_graph_is_recharged_once_its_adjacency_view_is_built(
    monkeypatch,
):
    plan = PLANS[0].replace(n=300)
    size = plan.build_graph(0).nbytes()
    monkeypatch.setattr(runner, "GRAPH_CACHE_BYTES", 3 * size)
    graph = runner._graph_for(plan, 0)
    graph.adjacency  # what a generator-engine run builds
    assert runner.graph_nbytes(graph) > 3 * size
    runner._graph_for(plan, 1)
    assert cached_seeds() == [1]
    assert runner._GRAPHS.nbytes == runner.graph_nbytes(
        runner._graph_for(plan, 1)
    )


def test_networkx_graphs_are_charged_by_size():
    small, large = nx.path_graph(10), nx.path_graph(1000)
    assert 0 < runner.graph_nbytes(small) < runner.graph_nbytes(large)
    arrays = make_family_arrays("gnp-sparse", 1000, seed=1)
    assert runner.graph_nbytes(arrays) == arrays.nbytes()


def test_budget_holds_a_sweep_plans_graphs():
    """One sweep plan's 40 n = 10^3 graphs plus eight n = 10^4 graphs
    fit the default budget together."""
    small = make_family_arrays("gnp-sparse", 1000, seed=1, graph_rng="batched")
    large = make_family_arrays(
        "gnp-sparse", 10_000, seed=1, graph_rng="batched"
    )
    assert 40 * small.nbytes() + 8 * large.nbytes() < (
        runner.GRAPH_CACHE_BYTES
    )
