"""One dispatch from a plan to a result.

Every entry point that runs a trial -- ``solve_mis``, ``run_trial``,
``run_planned_trial``, the batch runner, sweep trials and service solves
-- goes through :func:`repro.sim.batch.run_planned_trial`.  These tests
pin that they agree row for row on every algorithm, on both engines and
on both graph representations, and that every plan knob reaches the
engine (``max_rounds`` used to be dropped by ``run_trial``).
"""

from dataclasses import asdict

import networkx as nx
import pytest

from repro import solve_mis
from repro.analysis.complexity import run_trial, trial_from_result
from repro.api import algorithm_names
from repro.graphs.csr import GraphArrays
from repro.plan import RunPlan
from repro.service.executor import solve_payload
from repro.sim import MaxRoundsExceededError, run_trials
from repro.sim.batch import run_planned_trial
from repro.sweeps import execute_trial

SEED = 11


@pytest.mark.parametrize("graph_source", ["networkx", "arrays"])
@pytest.mark.parametrize("engine", ["generators", "vectorized"])
@pytest.mark.parametrize("algorithm", algorithm_names())
def test_every_entry_point_yields_the_same_row(algorithm, engine, graph_source):
    plan = RunPlan(
        algorithm=algorithm,
        family="gnp-sparse",
        n=48,
        seed=SEED,
        engine=engine,
        graph_source=graph_source,
    )
    graph = plan.build_graph(SEED)
    assert isinstance(graph, GraphArrays) == (graph_source == "arrays")

    def row(result):
        return asdict(
            trial_from_result(result, algorithm, family="gnp-sparse", seed=SEED)
        )

    expected = row(run_planned_trial(graph, plan, SEED))
    assert row(solve_mis(graph, plan=plan)) == expected
    _, trial = run_trial(graph, plan=plan, family="gnp-sparse")
    assert asdict(trial) == expected
    [batched] = run_trials(graph, seeds=[SEED], plan=plan)
    assert row(batched) == expected
    assert execute_trial(plan, SEED)["row"] == expected
    assert solve_payload(plan, SEED)["row"] == expected


@pytest.mark.parametrize("engine", ["generators", "vectorized"])
def test_run_trial_honours_max_rounds(engine):
    graph = nx.gnp_random_graph(200, 0.05, seed=1)
    plan = RunPlan(algorithm="luby", engine=engine, max_rounds=1)
    with pytest.raises(MaxRoundsExceededError):
        solve_mis(graph, plan=plan)
    with pytest.raises(MaxRoundsExceededError):
        run_trial(graph, plan=plan)
