"""One knob path into RunPlan: every entry point takes ``plan=`` or
``**knobs``, and both reach the one dispatch as the same plan.

The matrix below runs every entry point against every RunPlan
configuration field with a valid non-default value and checks that the
loose-knob call and the ``plan=`` call hand ``run_planned_trial`` the
same plan (a spy stops each call there, so no trial actually runs).  It
also pins the other half of the contract: ``plan=`` next to any loose
knob -- one equal to a default included -- is an error, grid entry
points refuse a loose ``seed``/``n``, and protocol kwarg names are
checked when the plan is built.
"""

import dataclasses

import pytest

import repro.analysis.complexity as complexity
import repro.sim.batch as batch
from repro import RunPlan, solve_mis
from repro.analysis.complexity import run_trial, sweep
from repro.analysis.tables import build_table1
from repro.graphs.generators import make_family_graph
from repro.plan import PLAN_FIELDS, SINGLE_RUN, _protocol_parameters
from repro.sim.batch import iter_trials, run_trials

GRAPH = make_family_graph("gnp-sparse", 12, seed=1)

#: The subject of a run: a field that says *what* runs or *which* trial,
#: not how.  Every other field is a configuration knob.
SUBJECT_FIELDS = {"algorithm", "family", "n", "seed"}

#: A valid value for every configuration field, non-default under every
#: entry point's default profile.
KNOB_VALUES = {
    "engine": "vectorized",
    "rng": "batched",
    "graph_rng": "batched",
    "graph_source": "networkx",
    "result": "arrays",
    "dtype": "narrow",
    "n_jobs": 2,
    "max_rounds": 1000,
    "congest_bit_limit": 10**6,
    "protocol_kwargs": {"max_phases": 50},
}

#: Knobs that apply only to family-sampled graphs.
FAMILY_KNOBS = {"graph_rng", "graph_source"}

#: name -> (call, loose subject, plan subject, default profile).  The
#: loose subject is what a caller passes without a plan; the plan
#: subject what the dispatched plan then carries.
ENTRY_POINTS = {
    "solve_mis": (
        lambda **kw: solve_mis(GRAPH, **kw),
        {"algorithm": "luby"}, {"algorithm": "luby"}, SINGLE_RUN,
    ),
    "run_trial": (
        lambda **kw: run_trial(GRAPH, **kw),
        {"algorithm": "luby"}, {"algorithm": "luby"}, SINGLE_RUN,
    ),
    "iter_trials": (
        lambda **kw: list(iter_trials(GRAPH, seeds=[3], **kw)),
        {"algorithm": "luby"}, {"algorithm": "luby"}, {"result": "legacy"},
    ),
    "run_trials": (
        lambda **kw: run_trials(GRAPH, seeds=[3], **kw),
        {"algorithm": "luby"}, {"algorithm": "luby"}, {"result": "legacy"},
    ),
    "sweep": (
        lambda **kw: sweep(sizes=(12,), trials=1, **kw),
        {"algorithm": "luby", "family": "gnp-sparse"},
        {"algorithm": "luby", "family": "gnp-sparse"}, {},
    ),
    "build_table1": (
        lambda **kw: build_table1(
            sizes=(12,), trials=1, algorithms=("luby",), **kw
        ),
        {"family": "gnp-sparse"},
        {"algorithm": "luby", "family": "gnp-sparse"}, {},
    ),
}


class _Dispatched(Exception):
    """Raised by the spy once the plan reached the one dispatch."""


@pytest.fixture
def dispatched(monkeypatch):
    """The plans handed to ``run_planned_trial``, in call order."""
    plans = []

    def spy(graph, plan, seed, **kwargs):
        plans.append(plan)
        raise _Dispatched

    monkeypatch.setattr(batch, "run_planned_trial", spy)
    monkeypatch.setattr(complexity, "run_planned_trial", spy)
    return plans


def _dispatch(call, **kwargs):
    with pytest.raises(_Dispatched):
        call(**kwargs)


def test_knob_values_cover_every_configuration_field():
    # A new RunPlan field must get a value here, so the matrix below
    # proves it reaches every entry point.
    assert set(KNOB_VALUES) == PLAN_FIELDS - SUBJECT_FIELDS


KNOB_CASES = [
    pytest.param({name: value}, {name: value}, id=name)
    for name, value in KNOB_VALUES.items()
] + [
    # A loose name that is no field is a protocol kwarg.
    pytest.param(
        {"max_phases": 50}, {"protocol_kwargs": {"max_phases": 50}},
        id="loose-protocol-kwarg",
    ),
]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("loose, config", KNOB_CASES)
def test_loose_knob_runs_the_same_plan_as_plan_kwarg(
    dispatched, entry, loose, config
):
    call, loose_subject, plan_subject, profile = ENTRY_POINTS[entry]
    extra = {}
    if FAMILY_KNOBS & set(loose) and "family" not in plan_subject:
        if entry == "run_trial":
            # Its loose family= is the Trial row label, so the knob
            # reaches a plan without a family, which refuses it.
            with pytest.raises(ValueError, match="family-sampled graphs"):
                call(**loose_subject, family="gnp-sparse", **loose)
            return
        extra = {"family": "gnp-sparse"}
    expected = RunPlan(**{**profile, **plan_subject, **extra, **config})
    _dispatch(call, **loose_subject, **extra, **loose)
    _dispatch(call, plan=expected)
    assert dispatched == [expected, expected]


@pytest.mark.parametrize("entry", ["solve_mis", "run_trial"])
def test_single_runs_take_their_seed_as_a_knob(dispatched, entry):
    call, loose_subject, plan_subject, profile = ENTRY_POINTS[entry]
    _dispatch(call, **loose_subject, seed=5)
    assert dispatched == [RunPlan(**{**profile, **plan_subject, "seed": 5})]


@pytest.mark.parametrize("entry", ["solve_mis", "run_trial"])
def test_single_run_default_profile(dispatched, entry):
    call, loose_subject, _, _ = ENTRY_POINTS[entry]
    _dispatch(call, **loose_subject)
    assert dispatched[0].engine == "generators"
    assert dispatched[0].result == "legacy"


def _default(field, profile):
    return {**{f.name: f.default for f in dataclasses.fields(RunPlan)},
            **profile}[field]


CLASH_FIELDS = sorted(KNOB_VALUES) + ["max_phases"]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("knob", CLASH_FIELDS)
def test_plan_plus_any_loose_knob_raises(dispatched, entry, knob):
    """Even a knob equal to the entry point's own default clashes: the
    plan is the whole configuration."""
    call, _, plan_subject, profile = ENTRY_POINTS[entry]
    plan = RunPlan(**{**profile, **plan_subject})
    value = 50 if knob == "max_phases" else _default(knob, profile)
    with pytest.raises(
        ValueError, match=rf"plan= and explicit knob\(s\) \['{knob}'\]"
    ):
        call(plan=plan, **{knob: value})
    assert dispatched == []


@pytest.mark.parametrize("call", [solve_mis, iter_trials])
def test_positional_algorithm_next_to_plan_clashes(call):
    # Left out, the algorithm is None, so "given" no longer means
    # "different from the signature default".
    with pytest.raises(ValueError, match=r"\['algorithm'\]"):
        call(GRAPH, "fast-sleeping", plan=RunPlan())


GRID_ENTRY_POINTS = ["iter_trials", "run_trials", "sweep", "build_table1"]


@pytest.mark.parametrize("entry", GRID_ENTRY_POINTS)
@pytest.mark.parametrize("knob", ["seed", "n"])
@pytest.mark.parametrize("with_plan", [False, True])
def test_grid_entry_points_own_seed_and_n(entry, knob, with_plan):
    call, loose_subject, plan_subject, _ = ENTRY_POINTS[entry]
    kwargs = (
        {"plan": RunPlan(**plan_subject)} if with_plan else loose_subject
    )
    with pytest.raises(TypeError, match=rf"no {knob}= knob.*(seeds=|sizes=|seed0=)"):
        call(**kwargs, **{knob: 3})


def test_build_table1_rows_come_from_algorithms():
    with pytest.raises(TypeError, match=r"algorithms="):
        build_table1(sizes=(8,), trials=1, algorithm="luby")


def test_build_table1_family_falls_back_without_plan(dispatched):
    _dispatch(ENTRY_POINTS["build_table1"][0])
    assert dispatched[0].family == "gnp-sparse"


class TestLooseProtocolKwargs:
    def test_merged_with_protocol_kwargs_field(self, dispatched):
        _dispatch(
            ENTRY_POINTS["solve_mis"][0], algorithm="sleeping", depth=2,
            protocol_kwargs={"coin_bias": 0.4},
        )
        assert dispatched[0].protocol_dict() == {"coin_bias": 0.4, "depth": 2}

    def test_name_given_twice_rejected(self):
        with pytest.raises(ValueError, match=r"\['depth'\] both loose"):
            solve_mis(GRAPH, "sleeping", depth=2, protocol_kwargs={"depth": 3})


class TestProtocolKwargValidation:
    """Protocol kwarg names are checked when the plan is built, against
    the algorithm's protocol constructor."""

    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"unknown luby protocol kwarg 'bogus'"):
            RunPlan(algorithm="luby", protocol_kwargs={"bogus": 1})

    def test_typo_gets_close_match(self):
        with pytest.raises(ValueError, match=r"did you mean 'coin_bias'"):
            RunPlan(algorithm="sleeping", protocol_kwargs={"coin_bais": 0.4})

    def test_loss_rate_is_no_protocol_kwarg(self):
        # Fault injection is a Simulator argument; as a protocol kwarg it
        # used to construct and then fail inside the protocol constructor.
        with pytest.raises(ValueError, match=r"protocol kwarg 'loss_rate'"):
            RunPlan(algorithm="sleeping", protocol_kwargs={"loss_rate": 0.5})

    def test_entry_point_rejects_before_running(self, dispatched):
        with pytest.raises(ValueError, match=r"protocol kwarg 'coin_bias'"):
            solve_mis(GRAPH, "luby", coin_bias=0.4)
        assert dispatched == []

    def test_vectorized_reason_still_named_first(self):
        with pytest.raises(ValueError, match="have no vectorized path"):
            RunPlan(engine="vectorized", protocol_kwargs={"bogus": 1})

    def test_accepted_names_cached_per_protocol_class(self):
        RunPlan(algorithm="ghaffari", protocol_kwargs={"max_phases": 5})
        before = _protocol_parameters.cache_info()
        RunPlan(algorithm="ghaffari", protocol_kwargs={"max_phases": 6})
        after = _protocol_parameters.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1
