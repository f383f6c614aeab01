"""The array-backed result type (repro.sim.array_result.ArrayRunResult).

``result="arrays"`` must be a representation change only: every measure,
every per-node statistic reachable through the lazy legacy view, and every
downstream consumer (Trial rows, energy, validation, CSV) has to agree
with the legacy ``RunResult`` bit for bit (floats: up to summation order
for energy only).  These tests pin that equivalence across engines,
algorithms, RNG streams, and the batch/sweep plumbing.
"""

from dataclasses import asdict

import numpy as np
import pytest

from helpers import GRAPH_CASES, run_mis

from repro.analysis.complexity import run_trial, trial_from_result
from repro.api import solve_mis
from repro.graphs.arrays import make_family_arrays
from repro.graphs.generators import make_family_graph
from repro.sim.array_result import (
    DTYPE_KINDS,
    RESULT_KINDS,
    ArrayRunResult,
    narrow_column,
    resolve_dtype_kind,
    resolve_result_kind,
    result_column,
    validate_result_kind,
)
from repro.sim.batch import run_trials
from repro.sim.energy import DEFAULT_MODEL

ALGORITHMS = (
    "sleeping", "fast-sleeping", "luby", "greedy", "ghaffari", "abi"
)

MEASURES = (
    "node_averaged_awake_complexity",
    "worst_case_awake_complexity",
    "node_averaged_round_complexity",
    "worst_case_round_complexity",
    "total_messages",
    "total_bits",
    "total_awake_rounds",
    "node_averaged_decision_round",
    "all_finished",
)


def assert_results_agree(legacy, arrays) -> None:
    """Every public observable of the two result types must match."""
    assert isinstance(arrays, ArrayRunResult)
    assert arrays.n == legacy.n
    assert arrays.rounds == legacy.rounds
    assert arrays.seed == legacy.seed
    for measure in MEASURES:
        assert getattr(arrays, measure) == getattr(legacy, measure), measure
    assert arrays.mis == legacy.mis
    assert arrays.undecided == legacy.undecided
    assert arrays.summary() == legacy.summary()
    assert arrays.outputs == legacy.outputs
    assert arrays.adjacency == legacy.adjacency
    assert arrays.protocols == legacy.protocols
    assert set(arrays.node_stats) == set(legacy.node_stats)
    for v in legacy.node_stats:
        assert asdict(arrays.node_stats[v]) == asdict(legacy.node_stats[v]), v


class TestVectorizedEnginesBuildArrays:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("rng", ["pernode", "batched"])
    @pytest.mark.parametrize(
        "builder", [b for _, b in GRAPH_CASES], ids=[n for n, _ in GRAPH_CASES]
    )
    def test_arrays_equal_legacy(self, builder, algorithm, rng):
        graph = builder()
        legacy = run_mis(graph, algorithm, seed=1, engine="vectorized", rng=rng)
        arrays = run_mis(
            graph, algorithm, seed=1, engine="vectorized", rng=rng,
            result="arrays",
        )
        assert_results_agree(legacy, arrays)

    def test_arrays_are_copies_not_scratch_views(self):
        from repro.sim.batch import make_vectorized_engine
        from repro.sim.fast_engine import EngineScratch

        graph = make_family_graph("gnp-sparse", 60, seed=2)
        scratch = EngineScratch()
        first = make_vectorized_engine(
            graph, "sleeping", seed=1, scratch=scratch, result="arrays"
        ).run()
        snapshot = first.awake_rounds.copy()
        # A second trial on the same scratch must not clobber the first
        # result's columns.
        make_vectorized_engine(
            graph, "sleeping", seed=99, scratch=scratch, result="arrays"
        ).run()
        np.testing.assert_array_equal(first.awake_rounds, snapshot)

    def test_engines_build_only_arrays(self):
        """The legacy view is the dispatch's to make: the engine factory
        refuses a kind that does not resolve to arrays and names the fix,
        and the engine classes take no ``result=`` at all."""
        from repro.sim.batch import make_vectorized_engine
        from repro.sim.fast_engine import VectorizedEngine
        from repro.sim.fast_phased import PhasedVectorizedEngine

        graph = make_family_arrays("gnp-sparse", 30, seed=1)
        for kind in ("arrays", "auto"):
            result = make_vectorized_engine(graph, "luby", result=kind).run()
            assert isinstance(result, ArrayRunResult)
        with pytest.raises(ValueError, match=r"run_planned_trial.*to_run_result"):
            make_vectorized_engine(graph, "sleeping", result="legacy")
        for cls in (VectorizedEngine, PhasedVectorizedEngine):
            with pytest.raises(TypeError, match="result"):
                cls(graph, result="arrays")


class TestGeneratorConversion:
    @pytest.mark.parametrize("algorithm", ["ghaffari", "abi", "sleeping"])
    def test_from_run_result_round_trip(self, algorithm):
        graph = make_family_graph("gnp-sparse", 80, seed=4)
        legacy = solve_mis(graph, algorithm, seed=4, engine="generators")
        arrays = ArrayRunResult.from_run_result(legacy)
        assert_results_agree(legacy, arrays)
        # The conversion keeps the original as the cached legacy view,
        # protocol instances included (lossless for per-call analyses).
        assert arrays.to_run_result() is legacy
        assert arrays.protocols is legacy.protocols

    def test_solve_mis_result_arrays_on_generator_engine(self):
        graph = make_family_graph("gnp-sparse", 60, seed=1)
        result = solve_mis(
            graph, "ghaffari", seed=1, engine="generators", result="arrays"
        )
        assert isinstance(result, ArrayRunResult)
        assert result.is_valid_mis()


class TestResultKindResolution:
    def test_kinds(self):
        assert RESULT_KINDS == ("auto", "legacy", "arrays")
        for kind in RESULT_KINDS:
            assert validate_result_kind(kind) == kind
        with pytest.raises(ValueError, match="unknown result kind"):
            validate_result_kind("dataframe")

    def test_auto_follows_engine(self):
        assert resolve_result_kind("auto", "vectorized") == "arrays"
        assert resolve_result_kind("auto", "generators") == "legacy"
        assert resolve_result_kind("legacy", "vectorized") == "legacy"
        assert resolve_result_kind("arrays", "generators") == "arrays"

    def test_solve_mis_auto_kinds(self):
        from repro.sim.trace import make_trace

        graph = make_family_graph("gnp-sparse", 40, seed=0)
        vec = solve_mis(graph, "sleeping", engine="auto", result="auto")
        ghf = solve_mis(graph, "ghaffari", engine="auto", result="auto")
        # A generator-only feature (tracing) still drops auto back to the
        # generator engine, and result="auto" follows it to legacy.
        gen = solve_mis(
            graph, "ghaffari", engine="auto", result="auto",
            trace=make_trace(enabled=True),
        )
        assert isinstance(vec, ArrayRunResult)
        assert isinstance(ghf, ArrayRunResult)  # ghaffari is vectorized now
        assert not isinstance(gen, ArrayRunResult)


class TestDownstreamConsumers:
    def test_trial_rows_identical(self):
        graph = make_family_arrays("gnp-sparse", 120, seed=9)
        legacy_run, legacy_trial = run_trial(
            graph, "fast-sleeping", seed=9, engine="vectorized",
            result="legacy",
        )
        arrays_run, arrays_trial = run_trial(
            graph, "fast-sleeping", seed=9, engine="vectorized",
            result="arrays",
        )
        assert isinstance(arrays_run, ArrayRunResult)
        for field in (
            "n", "seed", "node_averaged_awake", "worst_case_awake",
            "node_averaged_rounds", "worst_case_rounds",
            "total_messages", "total_bits", "valid", "undecided",
        ):
            assert getattr(arrays_trial, field) == getattr(legacy_trial, field)
        assert arrays_trial.total_energy == pytest.approx(
            legacy_trial.total_energy
        )

    def test_vectorized_validation_agrees_with_dict_oracle(self):
        from repro.graphs.validation import (
            is_maximal_independent_set,
            is_maximal_independent_set_arrays,
        )

        from repro.graphs.arrays import gnp_arrays_v2
        from repro.sim.batch import make_vectorized_engine
        from repro.graphs.csr import GraphArrays

        def near_mis_masks(arrays, rng):
            """Random masks, a true MIS from an engine run, and the MIS
            one member short or one member's neighbor too many."""
            for _ in range(4):
                yield "random", rng.random(arrays.n) < 0.4
            mis = make_vectorized_engine(
                arrays, "luby", seed=3, rng="batched", result="arrays"
            ).run().mis_mask
            yield "mis", mis
            members = np.flatnonzero(mis)
            if len(members):
                fewer = mis.copy()
                fewer[rng.choice(members)] = False
                yield "mis-minus-member", fewer
            deg = arrays.deg
            rows = members[deg[members] > 0]
            if len(rows):
                v = rng.choice(rows)
                start = int(deg[:v].sum())
                more = mis.copy()
                more[rng.choice(arrays.dst[start : start + deg[v]])] = True
                yield "mis-plus-neighbor", more

        rng = np.random.default_rng(7)
        cases = [(name, GraphArrays(build())) for name, build in GRAPH_CASES]
        cases += [
            (f"gnp-v2-{n}-{p}", gnp_arrays_v2(n, p, seed=seed))
            for n, p, seed in ((40, 0.1, 1), (200, 0.02, 2), (300, 0.3, 4))
        ]
        isolated = np.array([0, 3, 3, 9], dtype=np.int64)
        cases.append((
            "isolated-nodes",
            GraphArrays.from_edges(12, isolated, isolated[::-1] + 1),
        ))
        seen = set()
        for name, arrays in cases:
            for kind, mask in near_mis_masks(arrays, rng):
                members = {arrays.node_ids[i] for i in np.flatnonzero(mask)}
                verdict = is_maximal_independent_set(arrays.adjacency, members)
                assert is_maximal_independent_set_arrays(
                    arrays, mask
                ) == verdict, (name, kind)
                seen.add((kind, verdict))
        # The near-MIS masks reach both verdicts' interesting sides: true
        # MISs pass, a dropped member fails maximality, an added neighbor
        # fails independence.
        assert {("mis", True), ("mis-minus-member", False),
                ("mis-plus-neighbor", False)} <= seen

    def test_energy_model_tallies_arrays(self):
        graph = make_family_graph("gnp-sparse", 100, seed=3)
        legacy = solve_mis(graph, "sleeping", seed=3, engine="vectorized")
        arrays = solve_mis(
            graph, "sleeping", seed=3, engine="vectorized", result="arrays"
        )
        assert DEFAULT_MODEL.total_energy(arrays) == pytest.approx(
            DEFAULT_MODEL.total_energy(legacy)
        )
        assert DEFAULT_MODEL.average_energy(arrays) == pytest.approx(
            DEFAULT_MODEL.average_energy(legacy)
        )

    def test_parallel_chunks_ship_graph_arrays_without_dict(self):
        # The process-pool path must carry GraphArrays payloads with the
        # lazy adjacency still unbuilt (pickling edge arrays, not a dict),
        # and workers must produce the same results as the sequential
        # path.  On a 1-CPU sandbox the pool may fall back to sequential
        # execution with a warning -- results must be identical either way.
        import pickle
        import warnings

        ga = make_family_arrays("gnp-sparse", 120, seed=6)
        assert ga._adjacency is None
        clone = pickle.loads(pickle.dumps(ga))
        assert clone._adjacency is None  # lazy view survives the wire
        np.testing.assert_array_equal(clone.src, ga.src)
        # Even a materialized adjacency is dropped from the pickle and
        # rebuilt identically on demand at the receiving end.
        materialized = ga.adjacency
        wire_clone = pickle.loads(pickle.dumps(ga))
        assert wire_clone._adjacency is None
        assert wire_clone.adjacency == materialized
        ga._adjacency = None  # restore laziness for the pool assertions
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = run_trials(
                lambda seed: ga, "sleeping", seeds=range(4),
                engine="auto", result="arrays", n_jobs=2,
            )
        sequential = run_trials(
            lambda seed: ga, "sleeping", seeds=range(4),
            engine="auto", result="arrays",
        )
        assert ga._adjacency is None  # still never materialized
        for p, s in zip(parallel, sequential):
            assert p.mis == s.mis
            assert p.summary() == s.summary()

    def test_batch_runner_yields_arrays(self):
        graph = make_family_arrays("gnp-sparse", 90, seed=5)
        results = run_trials(
            graph, "sleeping", seeds=range(3), engine="auto", result="arrays"
        )
        assert len(results) == 3
        assert all(isinstance(r, ArrayRunResult) for r in results)
        legacy = run_trials(
            graph, "sleeping", seeds=range(3), engine="auto", result="legacy"
        )
        for a, b in zip(results, legacy):
            assert_results_agree(b, a)

    def test_trial_from_result_accepts_either(self):
        graph = make_family_graph("gnp-sparse", 70, seed=2)
        legacy = solve_mis(graph, "luby", seed=2, engine="vectorized")
        arrays = solve_mis(
            graph, "luby", seed=2, engine="vectorized", result="arrays"
        )
        row_a = trial_from_result(arrays, "luby", seed=2)
        row_b = trial_from_result(legacy, "luby", seed=2)
        assert row_a.valid == row_b.valid is True
        assert row_a.node_averaged_awake == row_b.node_averaged_awake


#: Path 0-1-2-3, the star 0-{1..4}, and two edges around isolated node 2.
PATH4 = (4, [0, 1, 2], [1, 2, 3])
STAR5 = (5, [0, 0, 0, 0], [1, 2, 3, 4])
SPLIT5 = (5, [0, 3], [1, 4])

#: (graph, members, expected verdict).
AUDIT_CASES = {
    "no-nodes": ((0, [], []), [], True),
    "isolated-all-members": ((3, [], []), [0, 1, 2], True),
    "isolated-non-member": ((3, [], []), [0, 1], False),
    "path-adjacent-members": (PATH4, [1, 2], False),
    "path-mis": (PATH4, [0, 2], True),
    "path-mis-ends-in-last-row": (PATH4, [1, 3], True),
    "path-conflict-in-last-row": (PATH4, [0, 2, 3], False),
    "path-uncovered-behind-non-member": (PATH4, [0], False),
    "star-center": (STAR5, [0], True),
    "star-leaves": (STAR5, [1, 2, 3, 4], True),
    "star-center-and-leaf": (STAR5, [0, 4], False),
    "empty-row-between-members": (SPLIT5, [0, 2, 4], True),
    "empty-row-left-out": (SPLIT5, [0, 4], False),
}


class TestMemberRowAudit:
    """`is_maximal_independent_set_arrays` reads only the members' CSR
    rows; these cases put members at the first and last rows, next to
    empty rows, and leave non-members reachable only from non-members."""

    @pytest.mark.parametrize("case", list(AUDIT_CASES))
    def test_verdict_matches_dict_oracle(self, case):
        from repro.graphs.validation import (
            is_maximal_independent_set,
            is_maximal_independent_set_arrays,
        )
        from repro.graphs.csr import GraphArrays

        (n, u, v), members, expected = AUDIT_CASES[case]
        arrays = GraphArrays.from_edges(n, u, v)
        mask = np.zeros(n, dtype=bool)
        mask[members] = True
        assert is_maximal_independent_set_arrays(arrays, mask) is expected
        assert is_maximal_independent_set(arrays.adjacency, members) is expected

    def test_mask_of_the_wrong_length_rejected(self):
        from repro.graphs.validation import is_maximal_independent_set_arrays
        from repro.graphs.csr import GraphArrays

        arrays = GraphArrays.from_edges(*PATH4)
        with pytest.raises(ValueError, match="expected \\(4,\\)"):
            is_maximal_independent_set_arrays(arrays, np.ones(3, dtype=bool))


class TestExactSummation:
    """Column reductions must not wrap where legacy Python ints would not."""

    def test_exact_sum_beyond_int64(self):
        from repro.sim.array_result import exact_sum

        huge = np.full(100, 1 << 52, dtype=np.int64)
        assert exact_sum(huge) == 100 * (1 << 52)  # > 2^58, int64-safe
        huge = np.full(5000, 1 << 51, dtype=np.int64)
        assert exact_sum(huge) == 5000 * (1 << 51)  # > 2^63: split path
        assert exact_sum(np.empty(0, dtype=np.int64)) == 0

    @pytest.mark.parametrize(
        "column",
        [
            np.array([(1 << 62), -(1 << 62), (1 << 62) - 1] * 7),
            np.array([(1 << 63) - 1] * 5 + [-(1 << 63)] * 3),
            np.array([-1, -1, (1 << 62) + 12345, -1]),
            np.full(3000, -(1 << 62) - 7),
            np.full(4, -(1 << 63)),
            np.random.default_rng(0).integers(
                -(1 << 63), (1 << 63) - 1, size=4096, dtype=np.int64
            ),
            np.array([2**31 - 1, -(2**31), 5] * 11, dtype=np.int32),
            np.arange(-50, 50, dtype=np.int32),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.array([3 * (2**70 - 1), -1, 2**63, 5] * 9, dtype=object),
            np.empty(0, dtype=object),
        ],
        ids=[
            "pm-2^62", "int64-extremes", "sentinels", "negative-large",
            "int64-min-only",
            "random-full-range", "int32-narrow", "int32-small",
            "empty-int64", "empty-int32", "object-past-int64", "empty-object",
        ],
    )
    def test_exact_sum_matches_python_ints(self, column):
        from repro.sim.array_result import exact_sum

        total = exact_sum(column)
        assert type(total) is int
        assert total == sum(column.tolist())

    def test_theta_n_cubed_rounds_do_not_overflow(self):
        # Algorithm 1 on a modest graph already has ~2^38 finish rounds;
        # synthesize the 10^5-node regime by padding the columns, and pin
        # the array measures against big-int arithmetic.
        graph = make_family_graph("gnp-sparse", 64, seed=1)
        legacy = solve_mis(graph, "sleeping", seed=1, engine="vectorized")
        arrays = solve_mis(
            graph, "sleeping", seed=1, engine="vectorized", result="arrays"
        )
        assert (
            arrays.node_averaged_round_complexity
            == legacy.node_averaged_round_complexity
        )
        scaled = ArrayRunResult(
            **{
                **{f: getattr(arrays, f) for f in (
                    "n", "rounds", "seed", "node_ids", "in_mis",
                    "awake_rounds", "sleep_rounds", "tx_rounds", "rx_rounds",
                    "idle_rounds", "messages_sent", "bits_sent",
                    "messages_received", "decision_round",
                    "awake_at_decision",
                )},
                "rounds": 1 << 52,
                "finish_round": np.full(arrays.n, 1 << 52, dtype=np.int64),
                "arrays": arrays.arrays,
            }
        )
        assert scaled.node_averaged_round_complexity == float(1 << 52)
        energy = DEFAULT_MODEL.total_energy(scaled)
        assert energy > 0  # and finite/positive despite huge sleep columns


class TestNarrowColumns:
    """The ``dtype="narrow"`` opt-in and its exactness guarantees."""

    def test_dtype_kind_validation(self):
        assert DTYPE_KINDS == ("default", "narrow")
        for kind in DTYPE_KINDS:
            assert resolve_dtype_kind(kind) == kind
        with pytest.raises(ValueError, match="unknown result dtype"):
            resolve_dtype_kind("float16")

    def test_narrow_column_ladder(self):
        # int64 in int32 range -> int32; out of range -> int64 copy.
        small = np.array([0, -5, 2**31 - 1], dtype=np.int64)
        assert narrow_column(small).dtype == np.int32
        np.testing.assert_array_equal(narrow_column(small), small)
        big = np.array([0, 2**31], dtype=np.int64)
        assert narrow_column(big).dtype == np.int64
        # Other dtypes (the int8 tri-state in_mis) pass through as copies.
        tri = np.array([-1, 0, 1], dtype=np.int8)
        assert narrow_column(tri).dtype == np.int8
        # Empty columns take the narrowest dtype trivially.
        assert narrow_column(np.empty(0, dtype=np.int64)).dtype == np.int32

    def test_result_column_always_copies(self):
        src = np.arange(10, dtype=np.int64)
        for narrow in (False, True):
            out = result_column(src, narrow=narrow)
            assert out is not src and not np.shares_memory(out, src)
        assert result_column(src, narrow=False).dtype == np.int64
        assert result_column(src, narrow=True).dtype == np.int32

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_narrow_measures_equal_default(self, algorithm):
        graph = make_family_arrays("gnp-sparse", 120, seed=11)
        default = solve_mis(
            graph, algorithm, seed=11, engine="vectorized", result="arrays"
        )
        narrow = solve_mis(
            graph, algorithm, seed=11, engine="vectorized", result="arrays",
            dtype="narrow",
        )
        assert narrow.awake_rounds.dtype == np.int32  # actually narrowed
        assert narrow.summary() == default.summary()
        assert narrow.mis == default.mis
        for measure in MEASURES:
            assert getattr(narrow, measure) == getattr(default, measure)
        for v in default.node_stats:
            assert asdict(narrow.node_stats[v]) == asdict(
                default.node_stats[v]
            ), v

    def test_from_run_result_narrow(self):
        graph = make_family_graph("gnp-sparse", 60, seed=4)
        legacy = solve_mis(graph, "ghaffari", seed=4, engine="generators")
        narrow = ArrayRunResult.from_run_result(legacy, "narrow")
        assert narrow.awake_rounds.dtype == np.int32
        assert_results_agree(legacy, narrow)

    def test_default_stays_bit_identical(self):
        """dtype='default' must be byte-for-byte the historical columns."""
        graph = make_family_arrays("gnp-sparse", 100, seed=2)
        explicit = solve_mis(
            graph, "fast-sleeping", seed=2, engine="vectorized",
            result="arrays", dtype="default",
        )
        implicit = solve_mis(
            graph, "fast-sleeping", seed=2, engine="vectorized",
            result="arrays",
        )
        for field in (
            "awake_rounds", "sleep_rounds", "finish_round", "bits_sent"
        ):
            a, b = getattr(explicit, field), getattr(implicit, field)
            assert a.dtype == b.dtype == (
                np.int64 if field != "in_mis" else np.int8
            )
            np.testing.assert_array_equal(a, b)


class TestDtypePromotionBoundaries:
    """Pin the exact recursion depth at which each round-label column
    climbs the ladder int32 -> int64 -> exact Python ints.

    Algorithm 1's round labels grow like ``T(K) = 3(2^K - 1)``:
    ``T(29) = 1_610_612_733`` is the last duration inside int32 range,
    ``T(61) = 6_917_529_027_641_081_853`` the last inside int64 --
    ``T(62)`` passes ``2^63 - 1``, where the label columns become
    ``object`` arrays of exact ints (``label_dtype``).  ``dtype="narrow"``
    takes int32 exactly when the values fit, never sooner.
    """

    #: (depth, dtype knob, expected round-label column dtype).
    CASES = [
        (29, "narrow", np.int32),
        (30, "narrow", np.int64),  # T(30) = 3_221_225_469 > 2^31 - 1
        (29, "default", np.int64),
        (30, "default", np.int64),
        (61, "narrow", np.int64),
        (61, "default", np.int64),
        (62, "narrow", object),  # T(62) > 2^63 - 1: exact ints
        (62, "default", object),
    ]

    @pytest.mark.parametrize("depth,dtype,expected", CASES)
    def test_round_label_columns_promote_at_the_pinned_depth(
        self, depth, dtype, expected
    ):
        graph = make_family_graph("gnp-sparse", 16, seed=1)
        result = solve_mis(
            graph, "sleeping", seed=1, engine="vectorized",
            result="arrays", dtype=dtype, depth=depth,
        )
        assert result.sleep_rounds.dtype == expected
        assert result.finish_round.dtype == expected
        # Count columns never promote: exact int64 (int32 under narrow)
        # at every depth -- the paper's awake measure stays exact.
        count_dtype = np.int32 if dtype == "narrow" else np.int64
        assert result.awake_rounds.dtype == count_dtype
        assert result.bits_sent.dtype == count_dtype

    def test_narrow_agrees_with_default_across_the_boundary(self):
        graph = make_family_graph("gnp-sparse", 16, seed=1)
        for depth in (29, 30, 62):
            default = solve_mis(
                graph, "sleeping", seed=1, engine="vectorized",
                result="arrays", depth=depth,
            )
            narrow = solve_mis(
                graph, "sleeping", seed=1, engine="vectorized",
                result="arrays", dtype="narrow", depth=depth,
            )
            assert narrow.summary() == default.summary(), depth
            assert narrow.mis == default.mis, depth


class TestFloatRegimeLegacyView:
    """Past int64 (depth >= 62) the vectorized engines keep round labels
    as exact Python ints, so the legacy view of a vectorized run equals
    the generator engine's node for node, value and type, round labels
    included."""

    FIELDS = (
        "finish_round", "awake_rounds", "tx_rounds", "rx_rounds",
        "idle_rounds", "messages_sent", "bits_sent", "messages_received",
        "awake_at_decision", "decision_round", "sleep_rounds",
    )

    @pytest.mark.parametrize("rng", ["pernode", "batched"])
    @pytest.mark.parametrize("algorithm", ["sleeping", "fast-sleeping"])
    @pytest.mark.parametrize("depth", [62, 64])
    def test_legacy_view_equals_generator_engine(self, depth, algorithm, rng):
        import networkx as nx

        for seed in range(3):
            graph = nx.gnp_random_graph(30, 0.15, seed=seed)
            vec, gen = (
                solve_mis(
                    graph, algorithm, seed=seed, engine=engine,
                    result="legacy", rng=rng, depth=depth,
                )
                for engine in ("vectorized", "generators")
            )
            assert set(vec.node_stats) == set(gen.node_stats)
            for v, want in gen.node_stats.items():
                got = vec.node_stats[v]
                for name in self.FIELDS:
                    a, b = getattr(got, name), getattr(want, name)
                    assert (a, type(a)) == (b, type(b)), (seed, v, name)

    @pytest.mark.parametrize("dtype", ["default", "narrow"])
    @pytest.mark.parametrize("rng", ["pernode", "batched"])
    @pytest.mark.parametrize("algorithm", ["sleeping", "fast-sleeping"])
    @pytest.mark.parametrize("depth", [62, 64])
    def test_generator_arrays_equal_vectorized_arrays(
        self, depth, algorithm, rng, dtype
    ):
        """``from_run_result`` packs a past-int64 generator run by the
        engines' rule: round-label columns are ``object`` arrays of exact
        ints once ``rounds`` passes int64, so every column matches in
        dtype and value."""
        import networkx as nx

        for seed in range(2):
            graph = nx.gnp_random_graph(30, 0.15, seed=seed)
            vec, gen = (
                solve_mis(
                    graph, algorithm, seed=seed, engine=engine,
                    result="arrays", rng=rng, depth=depth, dtype=dtype,
                )
                for engine in ("vectorized", "generators")
            )
            assert vec.rounds == gen.rounds > np.iinfo(np.int64).max
            assert vec.node_ids == gen.node_ids
            for name in ("sleep_rounds", "decision_round", "finish_round"):
                assert getattr(vec, name).dtype == object, (seed, name)
            for name in self.FIELDS + ("in_mis",):
                a, b = getattr(vec, name), getattr(gen, name)
                assert a.dtype == b.dtype, (seed, name)
                np.testing.assert_array_equal(a, b, err_msg=name)


class TestEmptyGraph:
    @pytest.mark.parametrize("algorithm", ["sleeping", "luby"])
    def test_zero_nodes(self, algorithm):
        result = solve_mis(
            {}, algorithm, seed=0, engine="vectorized", result="arrays"
        )
        assert isinstance(result, ArrayRunResult)
        assert result.n == 0 and result.rounds == 0
        assert result.mis == frozenset()
        assert result.node_averaged_awake_complexity == 0.0
        assert result.worst_case_awake_complexity == 0
        assert result.is_valid_mis()
        assert result.summary()["total_messages"] == 0
