"""Table rendering and the measured reproduction of the paper's Table 1.

Table 1 of the paper summarizes four complexity measures for prior MIS
algorithms versus Algorithms 1 and 2.  :func:`build_table1` re-creates it
with *measured* values: each cell is the mean over several seeded trials of
the corresponding measure, with the paper's asymptotic claim alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..graphs.arrays import DEFAULT_GRAPH_RNG, make_family
from ..sim.batch import iter_trials
from ..sim.fast_engine import GraphArrays
from .complexity import Trial, summarize, trial_from_result, trial_seeds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..plan import RunPlan


@dataclass
class Table:
    """A minimal text/markdown table."""

    title: str
    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        row = [str(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(self.headers)}"
            )
        self.rows.append(row)

    def to_text(self) -> str:
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [self.title, ""]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)


#: The paper's asymptotic claims (Table 1), keyed by our algorithm names.
PAPER_CLAIMS: Dict[str, Dict[str, str]] = {
    "abi": {
        "node_averaged_awake": "n/a (never sleeps)",
        "worst_case_awake": "n/a (never sleeps)",
        "node_averaged_rounds": "best known O(log n)",
        "worst_case_rounds": "O(log n)",
    },
    "luby": {
        "node_averaged_awake": "n/a (never sleeps)",
        "worst_case_awake": "n/a (never sleeps)",
        "node_averaged_rounds": "best known O(log n)",
        "worst_case_rounds": "O(log n)",
    },
    "greedy": {
        "node_averaged_awake": "n/a (never sleeps)",
        "worst_case_awake": "n/a (never sleeps)",
        "node_averaged_rounds": "best known O(log n)",
        "worst_case_rounds": "O(log n)",
    },
    "ghaffari": {
        "node_averaged_awake": "n/a (never sleeps)",
        "worst_case_awake": "n/a (never sleeps)",
        "node_averaged_rounds": "O(log n)",
        "worst_case_rounds": "O(log n) general graphs",
    },
    "sleeping": {
        "node_averaged_awake": "O(1)",
        "worst_case_awake": "O(log n)",
        "node_averaged_rounds": "O(n^3)",
        "worst_case_rounds": "O(n^3)",
    },
    "fast-sleeping": {
        "node_averaged_awake": "O(1)",
        "worst_case_awake": "O(log n)",
        "node_averaged_rounds": "O(log^3.41 n)",
        "worst_case_rounds": "O(log^3.41 n)",
    },
}

TABLE1_MEASURES = (
    "node_averaged_awake",
    "worst_case_awake",
    "node_averaged_rounds",
    "worst_case_rounds",
)


def build_table1(
    sizes: Sequence[int] = (64, 128, 256),
    family: str = "gnp-sparse",
    *,
    plan: Optional["RunPlan"] = None,
    algorithms: Sequence[str] = (
        "luby",
        "abi",
        "greedy",
        "ghaffari",
        "sleeping",
        "fast-sleeping",
    ),
    trials: int = 3,
    seed0: int = 0,
    engine: str = "auto",
    rng: str = "pernode",
    graph_source: str = "auto",
    graph_rng: str = DEFAULT_GRAPH_RNG,
    result: str = "auto",
    n_jobs: Optional[int] = None,
) -> Table:
    """Measured Table 1: one row per (algorithm, measure), one column per n.

    Everything after ``(sizes, family)`` is keyword-only.  Pass ``plan=``
    (a :class:`repro.plan.RunPlan` carrying family + the knob
    configuration) instead of loose knobs; the table iterates
    ``algorithms`` via ``plan.replace(algorithm=...)``, and
    ``sizes``/``trials``/``seed0`` stay loose arguments (the measurement
    grid, not per-run configuration).

    Every algorithm is measured on the *same* seeded graphs (identical to
    what :func:`repro.analysis.complexity.sweep` would build for the same
    ``seed0``), constructed once per size rather than once per algorithm;
    on vectorized-friendly configurations that graph reuse plus the
    vectorized baselines is what makes the full table fast.
    ``graph_source="auto"`` samples supported families straight into the
    array view (identical seeded edge sets, no networkx object);
    ``result="auto"`` keeps vectorized trials in array form until they are
    flattened into rows.  Every algorithm in the default table has a
    vectorized engine; generator-forced runs (``engine="generators"``)
    read the adjacency dict through the arrays' lazy view.
    ``graph_rng="batched"`` measures the table on v2-sampled graphs (same
    families and sizes, different seeded edge sets -- see
    :mod:`repro.graphs.arrays`).
    """
    from ..plan import ensure_plan

    plan = ensure_plan(
        build_table1,
        plan,
        given=dict(
            family=family,
            engine=engine,
            rng=rng,
            graph_source=graph_source,
            graph_rng=graph_rng,
            result=result,
            n_jobs=n_jobs,
        ),
    )
    if plan.family is None:
        raise ValueError(
            "build_table1() plan carries no family (family=None); build "
            "the plan with the graph family to measure"
        )
    family = plan.family
    source = plan.resolved_graph_source
    graph_rng = plan.graph_rng
    table = Table(
        title=(
            f"Table 1 (measured): {family} graphs, "
            f"mean over {trials} trials"
        ),
        headers=["algorithm", "measure"]
        + [f"n={n}" for n in sizes]
        + ["paper"],
    )
    rows_by_algorithm: Dict[str, List[Trial]] = {a: [] for a in algorithms}
    for n in sizes:
        seeds = trial_seeds(seed0, n, trials)
        # Prebuild the full array view once per graph: every algorithm
        # (vectorized engines directly, generator engine via the attached
        # or lazily materialized adjacency) then skips both
        # re-normalization and the per-graph edge-array construction.
        graphs = {}
        for seed in seeds:
            built = make_family(family, n, seed=seed, graph_source=source,
                                graph_rng=graph_rng)
            graphs[seed] = (
                built if isinstance(built, GraphArrays) else GraphArrays(built)
            )
        for algorithm in algorithms:
            # One base plan, per-algorithm variants: the demonstration
            # that a knob added to RunPlan reaches the table without
            # another signature change here.
            results = iter_trials(
                lambda seed: graphs[seed], seeds=seeds,
                plan=plan.replace(algorithm=algorithm),
            )
            rows_by_algorithm[algorithm].extend(
                trial_from_result(one, algorithm, family=family, seed=seed)
                for one, seed in zip(results, seeds)
            )
    for algorithm in algorithms:
        rows = rows_by_algorithm[algorithm]
        for measure in TABLE1_MEASURES:
            summary = summarize(rows, measure)
            cells = [f"{summary[n]['mean']:.1f}" for n in sizes]
            claim = PAPER_CLAIMS.get(algorithm, {}).get(measure, "")
            table.add_row(algorithm, measure, *cells, claim)
    return table
