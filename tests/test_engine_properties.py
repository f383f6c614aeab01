"""Randomized/property-style invariants of the simulation engines.

On seeded G(n, p) graphs, both engines must (a) output valid MIS's per the
validation oracles, (b) be bit-for-bit deterministic under equal seeds,
and (c) account for every wall-clock round exactly -- the fast-forward
trick may skip simulating sleep, but ``awake + sleep`` per node and the
schedule formulas must come out exact.  The batch runner must be a pure
reordering-free convenience over single runs.
"""

import networkx as nx
import pytest
from dataclasses import asdict

from helpers import run_mis

from repro.core import schedule
from repro.graphs.validation import assert_valid_mis
from repro.sim.batch import run_trials

ENGINES = ("generators", "vectorized")
ALGORITHMS = ("sleeping", "fast-sleeping")

#: (n, p, graph_seed) cases spanning sparse to fairly dense.
GNP_CASES = [(20, 0.3, 0), (40, 0.1, 1), (60, 0.05, 2), (80, 0.15, 3)]


def gnp(n, p, graph_seed):
    return nx.gnp_random_graph(n, p, seed=graph_seed)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("case", GNP_CASES, ids=lambda c: f"gnp{c[0]}-{c[2]}")
def test_mis_validity_on_random_graphs(case, algorithm, engine):
    n, p, graph_seed = case
    graph = gnp(n, p, graph_seed)
    for run_seed in (0, 1):
        result = run_mis(graph, algorithm, seed=run_seed, engine=engine)
        # fast-sleeping is Monte Carlo: undecided nodes are allowed in
        # principle, but must never break independence/maximality of the
        # decided part when absent.
        if not result.undecided:
            assert_valid_mis(graph, result.mis)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_equal_seeds_reproduce_bit_for_bit(algorithm, engine):
    graph = gnp(50, 0.1, 5)
    first = run_mis(graph, algorithm, seed=9, engine=engine)
    second = run_mis(graph, algorithm, seed=9, engine=engine)
    assert first.outputs == second.outputs
    assert first.rounds == second.rounds
    for v in first.node_stats:
        assert asdict(first.node_stats[v]) == asdict(second.node_stats[v])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_different_seeds_usually_differ(algorithm):
    graph = gnp(50, 0.1, 5)
    outputs = {
        tuple(sorted(run_mis(graph, algorithm, seed=s).mis)) for s in range(6)
    }
    assert len(outputs) > 1, "six seeds produced identical MIS's"


class TestFastForwardAccounting:
    """Round accounting is exact even though sleep is never simulated."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", GNP_CASES[:2], ids=str)
    def test_algorithm1_wall_clock_is_exact_schedule(self, case, engine):
        n, p, graph_seed = case
        result = run_mis(
            gnp(n, p, graph_seed), "sleeping", seed=1, engine=engine
        )
        expected = schedule.call_duration(schedule.recursion_depth(n))
        assert result.rounds == expected

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", GNP_CASES[:2], ids=str)
    def test_algorithm2_wall_clock_is_exact_schedule(self, case, engine):
        n, p, graph_seed = case
        result = run_mis(
            gnp(n, p, graph_seed), "fast-sleeping", seed=1, engine=engine
        )
        expected = schedule.fast_call_duration(
            schedule.truncated_depth(n), schedule.greedy_rounds(n)
        )
        assert result.rounds == expected

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_round_is_awake_or_asleep(self, algorithm, engine):
        result = run_mis(gnp(40, 0.1, 1), algorithm, seed=2, engine=engine)
        for stats in result.node_stats.values():
            assert stats.finish_round == result.rounds
            assert stats.awake_rounds + stats.sleep_rounds == result.rounds
            assert (
                stats.tx_rounds + stats.rx_rounds + stats.idle_rounds
                == stats.awake_rounds
            )


class TestRowReads:
    """The sleeping engine's two ways of reading a call's picked CSR rows
    (one boolean pass, or positions built from the row starts) return
    the same entries, whichever the picked share selects, in one row
    block or in many."""

    @pytest.mark.parametrize("share", [0.0, 0.05, 0.3, 0.9, 1.0])
    def test_row_entries_paths_agree(self, share, monkeypatch):
        import numpy as np

        import repro.sim.fast_engine as fe
        import repro.sim.phase_loop as phase_loop

        rng = np.random.default_rng(int(100 * share))
        deg = rng.integers(0, 7, size=3000)
        de = rng.integers(0, 3000, size=int(deg.sum())).astype(np.int32)
        pick = rng.random(3000) < share
        starts = np.cumsum(deg) - deg
        want = [
            de[start : start + d]
            for start, d, picked in zip(starts, deg, pick)
            if picked
        ]
        want = np.concatenate(want) if want else np.empty(0, np.int32)
        want_lens = deg[pick]
        for block in (phase_loop.EDGE_BLOCK, 64, 5):
            monkeypatch.setattr(phase_loop, "EDGE_BLOCK", block)
            for row_read_share in (0, 10**9):  # always rows, always one pass
                monkeypatch.setattr(fe, "_ROW_READ_SHARE", row_read_share)
                blocks = list(fe._row_entry_blocks(pick, deg, de))
                if block < len(de):
                    assert len(blocks) > 1 or not len(want)
                got = [entries for _, entries in blocks]
                assert all(entries.dtype == np.int32 for entries in got)
                np.testing.assert_array_equal(np.concatenate(got), want)
                got_lens = np.concatenate([lens for lens, _ in blocks])
                np.testing.assert_array_equal(got_lens, want_lens)

    @pytest.mark.parametrize("size", [0, 5, 2047, 2048, 50_000])
    def test_select_is_boolean_indexing(self, size):
        import numpy as np

        from repro.sim.phase_loop import _select

        rng = np.random.default_rng(size)
        values = rng.integers(-9, 9, size=size)
        mask = rng.random(size) < 0.5
        got = _select(values, mask)
        assert got.dtype == values.dtype
        np.testing.assert_array_equal(got, values[mask])


class TestBatchRunner:
    def test_results_in_seed_order_and_equal_to_single_runs(self):
        graph = gnp(30, 0.15, 4)
        seeds = [3, 1, 4, 1, 5]  # duplicates allowed
        batch = run_trials(graph, "fast-sleeping", seeds=seeds, engine="auto")
        assert len(batch) == len(seeds)
        for seed, result in zip(seeds, batch):
            single = run_mis(graph, "fast-sleeping", seed=seed)
            assert result.seed == seed
            assert result.outputs == single.outputs
            for v in single.node_stats:
                assert asdict(result.node_stats[v]) == asdict(
                    single.node_stats[v]
                )

    def test_graph_factory_builds_per_seed_graphs(self):
        results = run_trials(
            lambda seed: nx.path_graph(5 + seed), "sleeping", seeds=[0, 2],
        )
        assert [r.n for r in results] == [5, 7]

    def test_engines_agree_through_batch(self):
        graph = gnp(25, 0.2, 6)
        seeds = range(4)
        vec = run_trials(graph, "sleeping", seeds=seeds, engine="vectorized")
        gen = run_trials(graph, "sleeping", seeds=seeds, engine="generators")
        for a, b in zip(vec, gen):
            assert a.outputs == b.outputs and a.rounds == b.rounds

    def test_empty_seed_list(self):
        assert run_trials(nx.path_graph(3), "sleeping", seeds=[]) == []

    def test_parallel_matches_sequential(self):
        # On a 1-CPU container this exercises the pool plumbing rather
        # than any speedup; the contract is identical results in order.
        graph = gnp(20, 0.2, 8)
        seeds = list(range(6))
        seq = run_trials(graph, "fast-sleeping", seeds=seeds)
        par = run_trials(graph, "fast-sleeping", seeds=seeds, n_jobs=2)
        assert [r.outputs for r in par] == [r.outputs for r in seq]


class TestBatchCongestEnforcement:
    def test_congest_limit_threads_through_batch_and_sweep(self):
        # Regression: congest_bit_limit must reach the generator Simulator
        # through the batch path (it is not a protocol kwarg), and must
        # force the vectorized engine out of "auto".
        from repro.analysis.complexity import sweep
        from repro.sim.errors import CongestViolationError

        rows = sweep(
            "sleeping", "cycle", sizes=[8], trials=1, seed0=0,
            congest_bit_limit=64,
        )
        assert rows and rows[0].valid

        with pytest.raises(CongestViolationError):
            run_trials(
                nx.path_graph(3), "sleeping", seeds=[0], congest_bit_limit=1
            )
