"""RunPlan: the one validated configuration object behind every entry point.

Covers the plan contract end to end: construction-time validation of
every unsupported knob combination, hash/equality semantics, the pinned
canonical JSON form (the promise committed ``BENCH_*.json`` artifacts
rely on), the CLI flag -> plan field mapping, the ``ensure_plan`` shim
shared by the legacy keyword signatures, behavioral equivalence between
the plan path and the legacy kwargs path, and the sixth-knob guarantee
(a subclass with an extra field flows through serialization and entry
points without touching any signature).
"""

import dataclasses

import pytest

from repro import RunPlan, solve_mis
from repro.analysis.complexity import run_trial, sweep
from repro.analysis.tables import build_table1
from repro.cli import build_parser, plan_from_args
from repro.graphs.generators import make_family_graph
from repro.plan import PLAN_VERSION, ensure_plan
from repro.sim.batch import iter_trials, run_trials

#: The pinned canonical serialization (see RunPlan.to_json).  If this
#: golden string moves, every committed artifact config block and every
#: cache keyed by cache_key() silently invalidates -- bump PLAN_VERSION
#: instead of editing the expectation.
GOLDEN_PLAN = RunPlan(algorithm="luby", engine="vectorized", result="arrays")
GOLDEN_JSON = (
    '{"algorithm":"luby","congest_bit_limit":null,'
    '"engine":"vectorized","family":null,"graph_rng":"legacy",'
    '"graph_source":"auto","max_rounds":null,"n":null,"n_jobs":null,'
    '"plan_version":1,"protocol_kwargs":{},"result":"arrays",'
    '"rng":"pernode","seed":0}'
)
GOLDEN_CACHE_KEY = (
    "12dd3206e585e503c44782c53eca6d9aff1d791b9b6e7cad3dfb7ce17f6349cb"
)


class TestConstructionValidation:
    """Every unsupported combination fails at construction, with the
    same suggestion-bearing / unsupported_reason-style messages the
    underlying registries raise."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            # Unknown names get close-match suggestions.
            (dict(algorithm="lubby"), r"unknown algorithm 'lubby'.*luby"),
            (
                dict(family="gnp", n=8),
                r"unknown graph family 'gnp'.*'gnp-dense', 'gnp-sparse'",
            ),
            (dict(engine="vector"), r"unknown engine 'vector'"),
            (dict(rng="batch"), r"unknown rng stream 'batch'"),
            (
                dict(family="gnp-sparse", graph_rng="v2"),
                r"unknown graph_rng 'v2'",
            ),
            (
                dict(family="gnp-sparse", graph_source="csr"),
                r"unknown graph source 'csr'",
            ),
            (dict(result="dict"), r"unknown result kind 'dict'"),
            # Unsupported engine x instrumentation / kwarg combinations.
            (
                dict(engine="vectorized", congest_bit_limit=8),
                r"vectorized engine cannot run.*congest_bit_limit",
            ),
            (
                dict(engine="vectorized", protocol_kwargs={"bogus": 1}),
                r"protocol kwargs \['bogus'\] have no vectorized path",
            ),
            # Unsupported graph_rng x graph_source x family combinations.
            (
                dict(family="tree", graph_rng="batched"),
                r"family 'tree' has none.*graph_rng='legacy'",
            ),
            (
                dict(
                    family="gnp-sparse",
                    graph_source="networkx",
                    graph_rng="batched",
                ),
                r"cannot replay through the networkx generators",
            ),
            (
                dict(family="tree", graph_source="arrays"),
                r"'tree' has no array-native sampler",
            ),
            # Graph knobs are meaningless without a family to sample.
            (
                dict(graph_source="arrays"),
                r"graph_source='arrays' applies only to family-sampled",
            ),
            (
                dict(graph_rng="batched"),
                r"graph_rng='batched' applies only to family-sampled",
            ),
            # Scalar range checks.
            (dict(n=-1), r"n must be >= 0"),
            (dict(max_rounds=0), r"max_rounds must be >= 1"),
            (dict(congest_bit_limit=0), r"congest_bit_limit must be >= 1"),
            (dict(seed="x"), r"seed must be an int or None"),
            (
                dict(protocol_kwargs={1: "x"}),
                r"protocol kwarg names must be strings",
            ),
        ],
    )
    def test_invalid_combination_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunPlan(**kwargs)

    @pytest.mark.parametrize("n_jobs", [0, -1, -8])
    def test_nonpositive_n_jobs_rejected_with_fix(self, n_jobs):
        # The error must name the fix: None/1 for sequential, an explicit
        # positive count (os.cpu_count()) for parallel.
        with pytest.raises(ValueError) as excinfo:
            RunPlan(n_jobs=n_jobs)
        message = str(excinfo.value)
        assert f"n_jobs={n_jobs}" in message
        assert "n_jobs=None (or 1)" in message
        assert "os.cpu_count()" in message
        assert "no longer silently coerced" in message

    def test_replace_revalidates(self):
        plan = RunPlan(family="gnp-sparse", engine="auto")
        with pytest.raises(ValueError, match="not a valid worker count"):
            plan.replace(n_jobs=0)
        with pytest.raises(ValueError, match="vectorized engine cannot"):
            plan.replace(engine="vectorized", congest_bit_limit=4)

    def test_valid_plans_construct(self):
        # A plan that constructs is a plan that runs: the full matrix of
        # supported corners goes through without error.
        RunPlan()
        RunPlan(algorithm="ghaffari", engine="vectorized", rng="batched")
        RunPlan(
            family="gnp-sparse",
            n=1000,
            graph_source="arrays",
            graph_rng="batched",
            result="arrays",
            n_jobs=4,
        )
        RunPlan(algorithm="sleeping", protocol_kwargs={"depth": 3})
        RunPlan(engine="generators", congest_bit_limit=32, max_rounds=10)


class TestResolution:
    def test_resolved_engine_and_result(self):
        auto = RunPlan(algorithm="sleeping", engine="auto")
        assert auto.resolved_engine == "vectorized"
        assert auto.resolved_result == "arrays"
        # Generator-only instrumentation flips auto back to generators,
        # and auto-result follows the engine.
        congest = auto.replace(congest_bit_limit=16)
        assert congest.resolved_engine == "generators"
        assert congest.resolved_result == "legacy"

    def test_resolved_graph_source(self):
        assert RunPlan().resolved_graph_source is None
        arrays = RunPlan(family="gnp-sparse")
        assert arrays.resolved_graph_source == "arrays"
        assert RunPlan(family="tree").resolved_graph_source == "networkx"

    def test_build_graph_requires_spec(self):
        with pytest.raises(ValueError, match="no graph spec"):
            RunPlan().build_graph()

    def test_build_graph_sources(self):
        nx_plan = RunPlan(family="gnp-sparse", n=32, graph_source="networkx")
        graph = nx_plan.build_graph()
        assert graph.number_of_nodes() == 32
        arr = nx_plan.replace(graph_source="arrays").build_graph()
        assert arr.n == 32
        # Same seeded edge set across sources under the legacy stream.
        assert sorted(map(tuple, map(sorted, graph.edges()))) == sorted(
            map(tuple, map(sorted, arr.to_networkx().edges()))
        )


class TestHashEquality:
    def test_equal_plans_hash_equal(self):
        a = RunPlan(algorithm="sleeping", protocol_kwargs={"coin_bias": 0.5})
        b = RunPlan(
            algorithm="sleeping", protocol_kwargs=(("coin_bias", 0.5),)
        )
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_distinct_plans_differ(self):
        assert RunPlan() != RunPlan(rng="batched")
        assert RunPlan() != RunPlan(seed=1)

    def test_usable_as_dict_key(self):
        cache = {RunPlan(): "default", RunPlan(algorithm="luby"): "luby"}
        assert cache[RunPlan()] == "default"

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunPlan().algorithm = "luby"


class TestCanonicalSerialization:
    def test_golden_json_pinned(self):
        assert GOLDEN_PLAN.to_json() == GOLDEN_JSON

    def test_golden_cache_key_pinned(self):
        assert GOLDEN_PLAN.cache_key() == GOLDEN_CACHE_KEY

    def test_round_trip_golden(self):
        assert RunPlan.from_json(GOLDEN_JSON) == GOLDEN_PLAN

    def test_round_trip_full_plan(self):
        plan = RunPlan(
            algorithm="sleeping",
            family="gnp-sparse",
            n=512,
            seed=7,
            engine="vectorized",
            rng="batched",
            graph_rng="batched",
            graph_source="arrays",
            result="arrays",
            n_jobs=2,
            protocol_kwargs={"depth": 3},
        )
        clone = RunPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.to_json() == plan.to_json()
        assert clone.cache_key() == plan.cache_key()

    def test_to_dict_carries_version(self):
        assert RunPlan().to_dict()["plan_version"] == PLAN_VERSION

    def test_from_dict_rejects_wrong_version(self):
        data = RunPlan().to_dict()
        data["plan_version"] = PLAN_VERSION + 1
        with pytest.raises(ValueError, match="unsupported plan_version"):
            RunPlan.from_dict(data)
        with pytest.raises(ValueError, match="unsupported plan_version"):
            RunPlan.from_dict({"algorithm": "luby"})  # version missing

    def test_from_dict_rejects_unknown_fields(self):
        data = RunPlan().to_dict()
        data["patience"] = 3
        with pytest.raises(ValueError, match=r"unknown field\(s\) \['patience'\]"):
            RunPlan.from_dict(data)

    def test_from_dict_revalidates(self):
        # A hand-edited serialized plan with an invalid combination is
        # rejected exactly like direct construction.
        data = RunPlan(family="gnp-sparse").to_dict()
        data["graph_rng"] = "batched"
        data["graph_source"] = "networkx"
        with pytest.raises(ValueError, match="cannot replay"):
            RunPlan.from_dict(data)

    def test_default_dtype_is_elided_from_serialization(self):
        """The version-stable evolution rule: fields added after plan
        version 1 shipped serialize only at non-default values, so every
        committed artifact and cache key stays byte-identical."""
        assert "dtype" not in RunPlan().to_dict()
        assert '"dtype"' not in GOLDEN_JSON  # the pin above proves this too

    def test_narrow_dtype_serializes_and_round_trips(self):
        plan = RunPlan(dtype="narrow")
        assert plan.to_dict()["dtype"] == "narrow"
        assert '"dtype":"narrow"' in plan.to_json()
        clone = RunPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.cache_key() == plan.cache_key()
        assert clone.cache_key() != RunPlan().cache_key()

    def test_absent_dtype_deserializes_to_default(self):
        # Plans serialized before the dtype field existed stay loadable.
        assert RunPlan.from_json(GOLDEN_JSON).dtype == "default"

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="unknown result dtype"):
            RunPlan(dtype="float16")


class TestCliMapping:
    """Every configuration flag the CLI exposes maps onto exactly one
    RunPlan field via plan_from_args."""

    #: argparse dest -> RunPlan field, for every knob flag any subcommand
    #: defines.  A new CLI knob must be added here (and to RunPlan) or
    #: test_every_cli_knob_is_a_plan_field fails.
    DEST_TO_FIELD = {
        "algorithm": "algorithm",
        "family": "family",
        "n": "n",
        "seed": "seed",
        "engine": "engine",
        "rng": "rng",
        "graph_source": "graph_source",
        "graph_rng": "graph_rng",
        "result": "result",
        "dtype": "dtype",
        "jobs": "n_jobs",
    }

    #: Per-command dests that configure the *grid*, the *rendering*, the
    #: sweep *orchestration* (manifest/frontier/resume flags schedule
    #: which plans run where), or the *transport* (--server routing and
    #: the serve subcommand's pool/cache knobs) -- they never change what
    #: a trial measures, so they stay deliberately outside the plan.
    NON_PLAN_DESTS = {
        "command", "sizes", "trials", "measure", "markdown", "max_depth",
        "output", "manifest", "sweep_dir", "resume", "budget_s",
        "claim_ttl", "emit_manifest", "server", "no_fallback",
        "host", "port", "workers", "max_queue", "cache_size", "deadline_s",
        "profile_phases",
    }

    def _subparsers(self):
        parser = build_parser()
        actions = [
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        ]
        return parser._subparsers._group_actions[0].choices

    def test_every_cli_knob_is_a_plan_field(self):
        plan_fields = {f.name for f in dataclasses.fields(RunPlan)}
        for name, sub in self._subparsers().items():
            if name == "report":
                continue  # composite command; delegates grid params only
            for action in sub._actions:
                if action.dest in ("help",) or action.dest in self.NON_PLAN_DESTS:
                    continue
                assert action.dest in self.DEST_TO_FIELD, (
                    f"CLI flag --{action.dest} of '{name}' is not mapped "
                    f"onto a RunPlan field; extend plan_from_args and "
                    f"DEST_TO_FIELD"
                )
                assert self.DEST_TO_FIELD[action.dest] in plan_fields

    def test_plan_from_args_round_trips_flags(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--algorithm", "sleeping",
                "--family", "gnp-dense",
                "--seed", "7",
                "--engine", "vectorized",
                "--rng", "batched",
                "--graph-source", "arrays",
                "--graph-rng", "batched",
                "--result", "arrays",
                "--jobs", "2",
                "--sizes", "32",
            ]
        )
        plan = plan_from_args(args)
        assert plan == RunPlan(
            algorithm="sleeping",
            family="gnp-dense",
            seed=7,
            engine="vectorized",
            rng="batched",
            graph_source="arrays",
            graph_rng="batched",
            result="arrays",
            n_jobs=2,
        )

    def test_flagless_commands_keep_generator_defaults(self):
        # tree/energy expose no engine/result flags; the plan falls back
        # to the behavior they always had (generator engine, legacy
        # result -- the tree needs result.protocols).
        args = build_parser().parse_args(["tree", "--n", "16"])
        plan = plan_from_args(args)
        assert plan.engine == "generators"
        assert plan.result == "legacy"

    def test_cli_rejects_bad_combination_before_running(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep", "--family", "tree", "--graph-rng", "batched",
                "--sizes", "16", "--trials", "1",
            ]
        )
        assert code == 2
        assert "array-native" in capsys.readouterr().err


class TestEnsurePlanShim:
    def test_plan_type_checked(self):
        graph = make_family_graph("gnp-sparse", 16, seed=0)
        with pytest.raises(TypeError, match="expects a RunPlan"):
            solve_mis(graph, plan={"algorithm": "luby"})

    def test_plan_plus_loose_knobs_rejected(self):
        graph = make_family_graph("gnp-sparse", 16, seed=0)
        plan = RunPlan(algorithm="luby", engine="generators", result="legacy")
        with pytest.raises(ValueError, match=r"\['engine'\].*plan.replace"):
            solve_mis(graph, plan=plan, engine="vectorized")

    def test_iter_trials_validates_eagerly(self):
        # The clash surfaces at call time, not at first next().
        plan = RunPlan(algorithm="luby")
        with pytest.raises(ValueError, match="plan= and explicit knob"):
            iter_trials(
                lambda seed: make_family_graph("gnp-sparse", 8, seed=seed),
                seeds=[0],
                plan=plan,
                rng="batched",
            )

    def test_sweep_rejects_conflicting_algorithm(self):
        plan = RunPlan(algorithm="luby", family="gnp-sparse")
        with pytest.raises(ValueError, match=r"plan\.replace\(algorithm="):
            run_trial(
                make_family_graph("gnp-sparse", 8, seed=0),
                "sleeping",
                plan=RunPlan(algorithm="luby"),
            )
        # run_trial tolerates a *matching* positional algorithm; sweep
        # treats any loose algorithm next to plan= as a clash.
        result, trial = run_trial(
            make_family_graph("gnp-sparse", 8, seed=0),
            "luby",
            plan=RunPlan(algorithm="luby"),
        )
        assert trial.valid
        with pytest.raises(ValueError, match="plan= and explicit knob"):
            sweep("luby", sizes=(8,), plan=plan, trials=1)
        assert sweep(sizes=(8,), plan=plan, trials=1)

    def test_family_required_for_grid_entry_points(self):
        with pytest.raises(ValueError, match="family"):
            sweep(sizes=(8,), plan=RunPlan(algorithm="luby"), trials=1)
        with pytest.raises(ValueError, match="family"):
            build_table1(sizes=(8,), plan=RunPlan(), trials=1)


class TestPlanLegacyEquivalence:
    """The plan path and the legacy kwargs path are the same execution:
    bit-for-bit identical results (strictly-no-behavior-change gate)."""

    def test_solve_mis_equivalent(self):
        graph = make_family_graph("gnp-sparse", 64, seed=3)
        legacy = solve_mis(graph, "sleeping", seed=5, engine="vectorized")
        planned = solve_mis(
            graph,
            plan=RunPlan(
                algorithm="sleeping",
                seed=5,
                engine="vectorized",
                result="legacy",
            ),
        )
        assert legacy.mis == planned.mis
        assert legacy.rounds == planned.rounds

    def test_run_trials_equivalent(self):
        factory = lambda seed: make_family_graph("gnp-sparse", 32, seed=seed)
        legacy = run_trials(
            factory, "luby", seeds=range(3), engine="vectorized",
            rng="batched",
        )
        planned = run_trials(
            factory,
            seeds=range(3),
            plan=RunPlan(
                algorithm="luby", engine="vectorized", rng="batched",
                result="legacy",
            ),
        )
        for r1, r2 in zip(legacy, planned):
            assert r1.mis == r2.mis
            assert r1.rounds == r2.rounds

    def test_sweep_equivalent(self):
        legacy = sweep("luby", "gnp-sparse", sizes=(16, 32), trials=2)
        planned = sweep(
            sizes=(16, 32),
            plan=RunPlan(algorithm="luby", family="gnp-sparse"),
            trials=2,
        )
        assert legacy == planned

    def test_build_table1_equivalent(self):
        legacy = build_table1(
            sizes=(16,), trials=1, algorithms=("luby", "sleeping")
        )
        planned = build_table1(
            sizes=(16,),
            plan=RunPlan(family="gnp-sparse"),
            trials=1,
            algorithms=("luby", "sleeping"),
        )
        assert legacy.rows == planned.rows


@dataclasses.dataclass(frozen=True)
class PlanWithPatience(RunPlan):
    """The sixth-knob demonstration: one new field, nothing else edited."""

    patience: int = 3


class TestSixthKnob:
    """Adding a knob means adding a field -- serialization and entry
    points iterate dataclasses.fields, so nothing else changes."""

    def test_subclass_validates_and_hashes(self):
        plan = PlanWithPatience(algorithm="luby", patience=5)
        assert plan.patience == 5
        assert hash(plan) == hash(PlanWithPatience(algorithm="luby", patience=5))
        with pytest.raises(ValueError, match="unknown algorithm"):
            PlanWithPatience(algorithm="nope")

    def test_subclass_serializes_round_trip(self):
        plan = PlanWithPatience(family="gnp-sparse", patience=7)
        data = plan.to_dict()
        assert data["patience"] == 7
        clone = PlanWithPatience.from_json(plan.to_json())
        assert clone == plan
        # The base class refuses the extra field instead of dropping it.
        with pytest.raises(ValueError, match="unknown field"):
            RunPlan.from_dict(data)

    def test_subclass_flows_through_entry_points(self):
        plan = PlanWithPatience(algorithm="luby", family="gnp-sparse")
        rows = sweep(sizes=(16,), plan=plan, trials=1)
        assert rows == sweep(
            sizes=(16,),
            plan=RunPlan(algorithm="luby", family="gnp-sparse"),
            trials=1,
        )
        graph = make_family_graph("gnp-sparse", 16, seed=0)
        result = solve_mis(graph, plan=PlanWithPatience(algorithm="luby"))
        assert result.mis
