"""Golden digests of whole vectorized-engine results on edge-bound graphs.

The cross-engine equivalence suite diffs every statistic against the
generator engine, but only on graphs of at most 60 nodes, where the
engines' per-edge bookkeeping (received-message counts, live-set pruning,
in-call edge filtering) is never the dominant cost and never exercised at
depth.  These cases pin a sha256 over *every* ``ArrayRunResult`` column
on graphs two orders of magnitude larger -- all six vectorized algorithms
on ``gnp-sparse`` n = 5000, and the two edge-bound workhorses on
``gnp-dense`` n = 1500 (~1.1x10^6 directed edges) -- so an engine
optimisation that changes any count, round label, or decision fails here
at sizes the equivalence suite never runs.

Engine optimisations must leave every digest unchanged.  A deliberate
change of execution (a new stream format, a protocol fix) refreshes them
with ``python tests/test_engine_golden_digests.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.graphs.arrays import make_family_arrays
from repro.sim.batch import make_vectorized_engine

#: ((family, n, graph seed, algorithm, trial seed), sha256 of the result).
GOLDEN_CASES = (
    (
        ("gnp-sparse", 5000, 11, "sleeping", 3),
        "93ca57b2b762236184733764aea489b6a192bf972eb4ff191be72de6df3c6ae3",
    ),
    (
        ("gnp-sparse", 5000, 11, "fast-sleeping", 3),
        "c3492fd8feee5f74588a68bbc132ff585aef5bd32a77444345404c88289ec882",
    ),
    (
        ("gnp-sparse", 5000, 11, "luby", 3),
        "c6b7209989e891e9e0d68071905e17d056427fc3501ebcfc4efef1a0710c84a0",
    ),
    (
        ("gnp-sparse", 5000, 11, "greedy", 3),
        "7f2c59fa5d372339519353b89b25214545e51b64231fe7cf11ef46ffa4b9ded0",
    ),
    (
        ("gnp-sparse", 5000, 11, "ghaffari", 3),
        "35f73d547a5b55d0200141adbe3ad02cc6131a9f315d815bc7ffbaa5d9301be7",
    ),
    (
        ("gnp-sparse", 5000, 11, "abi", 3),
        "58e234a9daffc73062f4514c06edf45174dfead48b39912472fc587c87a0ea98",
    ),
    (
        ("gnp-dense", 1500, 12, "fast-sleeping", 4),
        "ce6beabda5c8cc9c4985259356e78ba8583c35b2c1f010a6c98d639940ce6d80",
    ),
    (
        ("gnp-dense", 1500, 12, "luby", 4),
        "1cbf2ed6edb43a90e8a494ee7415075978e96d9392ed5a5a1c28c0b66a207c46",
    ),
)
GOLDEN = dict(GOLDEN_CASES)

#: Every per-node column, in a fixed order, with the dtype it is hashed
#: at (independent of the engine's storage dtype choices).
COLUMNS = (
    ("in_mis", np.int8),
    ("awake_rounds", np.int64),
    ("sleep_rounds", np.int64),
    ("tx_rounds", np.int64),
    ("rx_rounds", np.int64),
    ("idle_rounds", np.int64),
    ("messages_sent", np.int64),
    ("bits_sent", np.int64),
    ("messages_received", np.int64),
    ("decision_round", np.int64),
    ("awake_at_decision", np.int64),
    ("finish_round", np.int64),
)


def result_digest(result) -> str:
    """sha256 over ``(n, rounds)`` and every column at a fixed dtype."""
    h = hashlib.sha256()
    h.update(f"{result.n}:{result.rounds}".encode())
    for name, dtype in COLUMNS:
        column = getattr(result, name)
        # Integer-valued columns only: a float round column would be a
        # dtype promotion these sizes must never reach.
        assert column.dtype.kind == "i", (name, column.dtype)
        h.update(name.encode())
        h.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return h.hexdigest()


def run_case(family, n, graph_seed, algorithm, seed):
    ga = make_family_arrays(family, n, seed=graph_seed, graph_rng="batched")
    result = make_vectorized_engine(
        ga, algorithm, seed=seed, rng="batched", result="arrays"
    ).run()
    assert result.is_valid_mis() and result.all_finished
    return result


@pytest.mark.parametrize(
    "case", list(GOLDEN), ids=["-".join(map(str, c)) for c in GOLDEN]
)
def test_result_digest_is_pinned(case):
    assert result_digest(run_case(*case)) == GOLDEN[case]


if __name__ == "__main__":  # regenerate the table above
    for case in GOLDEN:
        case_line = repr(case).replace("'", '"')
        digest = result_digest(run_case(*case))
        print(f'    (\n        {case_line},\n        "{digest}",\n    ),')
