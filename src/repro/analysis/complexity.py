"""Trial harness: run algorithms over graph families and collect measures.

This is the measurement loop behind every benchmark and the CLI: build a
seeded graph from a registered family, run a registered algorithm, validate
the output, and flatten the paper's four complexity measures (plus message
and energy totals) into a :class:`Trial` row.

:func:`sweep` routes through the batch runner
(:func:`repro.sim.batch.run_trials`), so sweeps pick up the vectorized
engine automatically (``engine="auto"``) and can fan trials out over
worker processes (``n_jobs=``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from ..graphs.arrays import DEFAULT_GRAPH_RNG, make_family
from ..graphs.validation import is_maximal_independent_set
from ..sim.array_result import ArrayRunResult
from ..sim.batch import iter_trials, run_planned_trial
from ..sim.energy import DEFAULT_MODEL, EnergyModel
from ..sim.metrics import RunResult
from ..sim.rng import DEFAULT_STREAM

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..plan import RunPlan


@dataclass
class Trial:
    """One (algorithm, graph, seed) measurement."""

    algorithm: str
    family: str
    n: int
    seed: int
    node_averaged_awake: float
    worst_case_awake: int
    node_averaged_rounds: float
    worst_case_rounds: int
    total_messages: int
    total_bits: int
    total_energy: float
    valid: bool
    undecided: int


def trial_from_result(
    result: RunResult,
    algorithm: str,
    *,
    family: str = "custom",
    seed: Optional[int] = None,
    energy_model: EnergyModel = DEFAULT_MODEL,
) -> Trial:
    """Flatten a finished result into a :class:`Trial` row.

    Accepts either a legacy :class:`RunResult` or an
    :class:`~repro.sim.array_result.ArrayRunResult`; measures are
    integer-exact either way.  Validation runs against the graph recorded
    in the result (vectorized O(m) passes for array-backed results, the
    dict oracle otherwise), so rows can be built from batch-runner output
    without re-threading graphs.
    """
    if isinstance(result, ArrayRunResult):
        valid = result.is_valid_mis()
    else:
        valid = is_maximal_independent_set(result.adjacency, result.mis)
    return Trial(
        algorithm=algorithm,
        family=family,
        n=result.n,
        seed=result.seed if seed is None else seed,
        node_averaged_awake=result.node_averaged_awake_complexity,
        worst_case_awake=result.worst_case_awake_complexity,
        node_averaged_rounds=result.node_averaged_round_complexity,
        worst_case_rounds=result.worst_case_round_complexity,
        total_messages=result.total_messages,
        total_bits=result.total_bits,
        total_energy=energy_model.total_energy(result),
        valid=valid,
        undecided=len(result.undecided),
    )


def run_trial(
    graph: Any,
    algorithm: Optional[str] = None,
    *,
    plan: Optional["RunPlan"] = None,
    seed: int = 0,
    family: str = "custom",
    energy_model: EnergyModel = DEFAULT_MODEL,
    congest_bit_limit: Optional[int] = None,
    engine: str = "generators",
    rng: str = DEFAULT_STREAM,
    result: str = "legacy",
    **protocol_kwargs: Any,
) -> tuple:
    """Run one algorithm once; returns ``(result, Trial)``.

    Takes ``(graph, algorithm)`` -- the concrete-graph argument order
    shared with :func:`repro.api.solve_mis` (family-driven entry points
    like :func:`sweep` take ``(algorithm, family)``); everything else is
    keyword-only, so cross-use fails with a clear named-argument error.
    Pass ``plan=`` (a :class:`repro.plan.RunPlan`) instead of loose
    knobs; ``family`` here is the row *label* written into the
    :class:`Trial` (often not a registered family name), and
    ``energy_model`` a live model object, so both stay outside the plan.

    The default engine stays ``"generators"`` because single-trial callers
    (recursion trees, lemma analyses) usually need ``result.protocols``,
    which the vectorized engines do not populate.  ``result="arrays"``
    (or ``"auto"``) returns the struct-of-arrays
    :class:`~repro.sim.array_result.ArrayRunResult` instead of the
    per-node-dict :class:`RunResult`; the Trial row is identical.
    """
    from ..plan import ensure_plan

    if plan is None and algorithm is None:
        raise TypeError(
            "run_trial() needs an algorithm: pass it positionally "
            "(run_trial(graph, 'luby')) or inside plan="
        )
    if plan is not None and algorithm is not None:
        if algorithm != plan.algorithm:
            raise ValueError(
                f"run_trial() got algorithm={algorithm!r} and a plan with "
                f"algorithm={plan.algorithm!r}; derive a variant with "
                f"plan.replace(algorithm=...) instead"
            )
        algorithm = None  # a positional algorithm matching the plan is no clash
    plan = ensure_plan(
        run_trial,
        plan,
        given=dict(
            algorithm=algorithm,
            seed=seed,
            congest_bit_limit=congest_bit_limit,
            engine=engine,
            rng=rng,
            result=result,
            protocol_kwargs=protocol_kwargs,
        ),
    )
    run = run_planned_trial(graph, plan, plan.seed)
    trial = trial_from_result(
        run, plan.algorithm, family=family, seed=plan.seed,
        energy_model=energy_model,
    )
    return run, trial


def trial_seeds(seed0: int, n: int, trials: int) -> List[int]:
    """The per-(size, trial) master seeds used by every sweep.

    One shared definition so :func:`sweep`,
    :func:`repro.analysis.tables.build_table1`, and ad-hoc repro scripts
    measure the *same* seeded graphs for the same ``seed0``.
    """
    return [seed0 + 1009 * t + n for t in range(trials)]


def sweep(
    algorithm: Optional[str] = None,
    family: Optional[str] = None,
    *,
    sizes: Sequence[int] = (),
    plan: Optional["RunPlan"] = None,
    trials: int = 3,
    seed0: int = 0,
    engine: str = "auto",
    rng: str = DEFAULT_STREAM,
    graph_source: str = "auto",
    graph_rng: str = DEFAULT_GRAPH_RNG,
    result: str = "auto",
    n_jobs: Optional[int] = None,
    energy_model: EnergyModel = DEFAULT_MODEL,
    congest_bit_limit: Optional[int] = None,
    **protocol_kwargs: Any,
) -> List[Trial]:
    """Measure ``algorithm`` on ``family`` across ``sizes``.

    Takes ``(algorithm, family)`` -- the family-driven argument order
    shared with :func:`repro.analysis.tables.build_table1` (concrete-graph
    entry points like :func:`run_trial` take ``(graph, algorithm)``);
    everything else, including ``sizes``, is keyword-only.  Pass ``plan=``
    (a :class:`repro.plan.RunPlan` carrying algorithm + family + the knob
    configuration) instead of loose knobs; ``sizes``/``trials``/``seed0``
    stay loose arguments because they are the measurement *grid*, not
    per-run configuration.

    Each (size, trial index) pair gets its own graph seed and run seed so
    repeated sweeps are reproducible yet independent across trials.  The
    trials *stream* through the batch runner
    (:func:`repro.sim.batch.iter_trials`): each result is flattened into
    its :class:`Trial` row and dropped before the next trial runs, so a
    10^4..10^5-node sweep holds one graph and one result in memory at a
    time.

    The sweep defaults to the fully array-native measurement pipeline
    wherever that changes nothing but speed: ``engine="auto"`` picks the
    vectorized engines, ``graph_source="auto"`` samples families with an
    array-native sampler straight into CSR arrays (identical seeded edge
    sets -- see :mod:`repro.graphs.arrays`), and ``result="auto"`` keeps
    vectorized-trial statistics as numpy columns instead of 10^5 per-node
    dicts.  Force ``graph_source="networkx"`` / ``result="legacy"`` to
    reproduce the classic path; ``rng="batched"`` selects the v2
    whole-array random streams (:mod:`repro.sim.rng`) and
    ``graph_rng="batched"`` the v2 vectorized graph sampling
    (different seeded graphs, versioned -- see
    :mod:`repro.graphs.arrays`); ``n_jobs`` fans the per-size seed
    batches over worker processes.
    """
    from ..plan import ensure_plan

    if plan is None and (algorithm is None or family is None):
        raise TypeError(
            "sweep() needs an algorithm and a family: pass them "
            "positionally (sweep('luby', 'gnp-sparse', sizes=...)) or "
            "inside plan="
        )
    plan = ensure_plan(
        sweep,
        plan,
        given=dict(
            algorithm=algorithm,
            family=family,
            engine=engine,
            rng=rng,
            graph_source=graph_source,
            graph_rng=graph_rng,
            result=result,
            n_jobs=n_jobs,
            congest_bit_limit=congest_bit_limit,
            protocol_kwargs=protocol_kwargs,
        ),
    )
    if plan.family is None:
        raise ValueError(
            "sweep() plan carries no family (family=None); build the "
            "plan with the graph family to measure"
        )
    algorithm, family = plan.algorithm, plan.family
    source = plan.resolved_graph_source
    graph_rng = plan.graph_rng
    rows: List[Trial] = []
    for n in sizes:
        seeds = trial_seeds(seed0, n, trials)
        factory = (
            lambda seed, n=n: make_family(family, n, seed=seed,
                                          graph_source=source,
                                          graph_rng=graph_rng)
        )
        results = iter_trials(factory, seeds=seeds, plan=plan)
        rows.extend(
            trial_from_result(
                one, algorithm,
                family=family, seed=seed, energy_model=energy_model,
            )
            for one, seed in zip(results, seeds)
        )
    return rows


#: Trial fields that can be aggregated numerically.
MEASURES = (
    "node_averaged_awake",
    "worst_case_awake",
    "node_averaged_rounds",
    "worst_case_rounds",
    "total_messages",
    "total_bits",
    "total_energy",
)


def summarize(
    rows: Iterable[Trial], measure: str = "node_averaged_awake"
) -> Dict[int, Dict[str, float]]:
    """Per-``n`` mean/min/max of one measure over a list of trials."""
    if measure not in MEASURES:
        raise KeyError(f"unknown measure {measure!r}; known: {MEASURES}")
    grouped: Dict[int, List[float]] = {}
    for row in rows:
        grouped.setdefault(row.n, []).append(float(getattr(row, measure)))
    summary: Dict[int, Dict[str, float]] = {}
    for n in sorted(grouped):
        values = grouped[n]
        summary[n] = {
            "mean": statistics.fmean(values),
            "min": min(values),
            "max": max(values),
            "stdev": statistics.stdev(values) if len(values) > 1 else 0.0,
            "count": len(values),
        }
    return summary


def mean_by_size(
    rows: Iterable[Trial], measure: str = "node_averaged_awake"
) -> tuple:
    """``(sizes, means)`` arrays ready for the estimators."""
    summary = summarize(rows, measure)
    sizes = sorted(summary)
    return sizes, [summary[n]["mean"] for n in sizes]


def all_valid(rows: Iterable[Trial]) -> bool:
    """Whether every trial produced a valid MIS."""
    return all(row.valid for row in rows)


#: Column order for CSV export.
CSV_FIELDS = (
    "algorithm",
    "family",
    "n",
    "seed",
    "node_averaged_awake",
    "worst_case_awake",
    "node_averaged_rounds",
    "worst_case_rounds",
    "total_messages",
    "total_bits",
    "total_energy",
    "valid",
    "undecided",
)


def trials_to_csv(rows: Iterable[Trial]) -> str:
    """Render trials as CSV text (header + one line per trial)."""
    lines = [",".join(CSV_FIELDS)]
    for row in rows:
        lines.append(
            ",".join(str(getattr(row, field)) for field in CSV_FIELDS)
        )
    return "\n".join(lines)


def write_csv(rows: Iterable[Trial], path: str) -> None:
    """Write trials to a CSV file."""
    with open(path, "w") as handle:
        handle.write(trials_to_csv(rows) + "\n")
