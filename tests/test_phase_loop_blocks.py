"""The phase loop's row blocks (:mod:`repro.sim.phase_loop`).

Every edge pass of :meth:`PhaseLoop.run` and of Ghaffari's desire update
walks the frontier in row blocks of about ``EDGE_BLOCK`` entries, and a
row longer than a block gets a block to itself.  At the default block
size the graphs below fit in one block, so these tests shrink it (to 7,
below a typical row, and to 512, a few rows) and require every result
column to equal the one-block run's: the blocking decides how much is in
flight at once, never what the run computes.
"""

import numpy as np
import pytest

import repro.sim.phase_loop as phase_loop
from repro.graphs.arrays import make_family_arrays
from repro.sim.fast_engine import VectorizedEngine
from repro.sim.fast_phased import PhasedVectorizedEngine
from repro.sim.phase_loop import row_blocks

#: Every per-node column of a result.
COLUMNS = (
    "in_mis", "awake_rounds", "sleep_rounds", "tx_rounds", "rx_rounds",
    "idle_rounds", "messages_sent", "bits_sent", "messages_received",
    "decision_round", "awake_at_decision", "finish_round",
)

GRAPHS = {
    "gnp-dense-300": ("gnp-dense", 300),
    "gnp-sparse-2000": ("gnp-sparse", 2000),
}


def _build(name):
    family, n = GRAPHS[name]
    return make_family_arrays(family, n, seed=4, graph_rng="batched")


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return _build(request.param)


def _columns(result):
    columns = {name: np.asarray(getattr(result, name)) for name in COLUMNS}
    columns["rounds"] = result.rounds
    return columns


def _assert_same_columns(got, want):
    assert got["rounds"] == want["rounds"]
    for name in COLUMNS:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


class TestRowBlocks:
    def test_one_block_when_the_frontier_fits(self):
        cnt = np.array([3, 1, 4], dtype=np.int64)
        assert row_blocks(cnt, 8) == [(0, 3, 0, 8)]

    def test_blocks_tile_the_rows(self, monkeypatch):
        monkeypatch.setattr(phase_loop, "EDGE_BLOCK", 5)
        cnt = np.array([2, 2, 0, 9, 1, 1, 3, 0], dtype=np.int64)
        blocks = row_blocks(cnt, int(cnt.sum()))
        # Consecutive, covering every row and entry once, in order.
        assert blocks[0][0] == 0 and blocks[0][2] == 0
        assert blocks[-1][1] == len(cnt) and blocks[-1][3] == cnt.sum()
        for (_, b1, _, e1), (b0, _, e0, _) in zip(blocks, blocks[1:]):
            assert (b1, e1) == (b0, e0)
        for b0, b1, e0, e1 in blocks:
            assert cnt[b0:b1].sum() == e1 - e0
            # A block holds at most EDGE_BLOCK entries, unless it is one
            # longer row.
            assert e1 - e0 <= 5 or (b1 - b0 == 1 and cnt[b0] > 5)
        assert (3, 4, 4, 13) in blocks  # the 9-entry row stands alone


@pytest.mark.parametrize("rng", ["pernode", "batched"])
@pytest.mark.parametrize("algorithm", ["luby", "greedy", "ghaffari", "abi"])
def test_small_blocks_change_no_column(monkeypatch, graph, rng, algorithm):
    ga = graph

    def run():
        # A round cap turns a blocking bug that stalls a marking policy
        # into a failure instead of a hang.
        result = PhasedVectorizedEngine(
            ga, algorithm, seed=3, rng=rng, max_rounds=3000
        ).run()
        assert result.is_valid_mis() and result.all_finished
        return _columns(result)

    dst = ga.dst.copy()
    want = run()
    assert ga.m <= phase_loop.EDGE_BLOCK  # the reference is one block
    for block in (7, 512):
        monkeypatch.setattr(phase_loop, "EDGE_BLOCK", block)
        _assert_same_columns(run(), want)
    # Phase 0 reads the CSR in place; only later phases compact in place.
    np.testing.assert_array_equal(ga.dst, dst)


@pytest.mark.parametrize("rng", ["pernode", "batched"])
@pytest.mark.parametrize("depth", [0, 2])
def test_small_blocks_in_a_base_case(monkeypatch, depth, rng):
    """Algorithm 2 at depth 0 is one greedy base call over the whole
    graph, so its phase loop walks every edge of it; at depth 2 its one
    base call runs on 86 of the 300 nodes, so phase 0 maps its rows'
    node ids to the loop's slots first."""
    ga = _build("gnp-dense-300")

    def run():
        result = VectorizedEngine(
            ga, "fast-sleeping", seed=3, rng=rng, depth=depth
        ).run()
        assert result.is_valid_mis()
        return _columns(result)

    dst = ga.dst.copy()
    want = run()
    for block in (7, 512):
        monkeypatch.setattr(phase_loop, "EDGE_BLOCK", block)
        _assert_same_columns(run(), want)
    np.testing.assert_array_equal(ga.dst, dst)


@pytest.mark.parametrize("algorithm", ["sleeping", "fast-sleeping"])
def test_small_blocks_in_the_recursion(monkeypatch, graph, algorithm):
    """Each recursion call reads its parent's rows a row block at a time
    when it filters a sub-call's rows and when it marks the MIS
    members' neighbors: blocks of 7 and 512 entries change no column."""
    ga = graph

    def run():
        result = VectorizedEngine(ga, algorithm, seed=3, rng="batched").run()
        assert result.is_valid_mis()
        return _columns(result)

    dst = ga.dst.copy()
    want = run()
    for block in (7, 512):
        monkeypatch.setattr(phase_loop, "EDGE_BLOCK", block)
        _assert_same_columns(run(), want)
    np.testing.assert_array_equal(ga.dst, dst)
