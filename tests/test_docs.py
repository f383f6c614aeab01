"""Keep the documentation in sync with the code.

These tests fail when someone adds an algorithm, graph family, engine or
RNG or result-type choice, benchmark artifact, or experiment without
documenting it -- cheap insurance for a repository whose main deliverable
is a documented reproduction.  ``TestDocLinks`` additionally checks every
relative link and anchor in the markdown docs, so renames break CI
instead of readers.  (CI runs this file as its own ``docs`` job; see
.github/workflows/ci.yml.)
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Every markdown file the docs job checks for dead links/anchors.
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/model.md",
    "docs/algorithms.md",
    "docs/api.md",
    "docs/performance.md",
    "docs/sweeps.md",
    "docs/service.md",
)


def read(name: str) -> str:
    path = ROOT / name
    assert path.exists(), f"missing documentation file {name}"
    return path.read_text()


class TestFilesExist:
    @pytest.mark.parametrize("name", DOC_FILES)
    def test_doc_present_and_nonempty(self, name):
        assert len(read(name)) > 500


class TestReadmeAccuracy:
    def test_all_algorithms_mentioned(self):
        from repro.api import algorithm_names

        readme = read("README.md")
        for name in algorithm_names():
            assert name in readme, f"algorithm {name!r} missing from README"

    def test_paper_reference(self):
        readme = read("README.md")
        assert "PODC 2020" in readme
        assert "2006.07449" in readme

    def test_quickstart_code_runs(self):
        # The README quickstart blocks, executed verbatim in spirit
        # (smaller n so the test stays fast).
        import networkx as nx

        from repro import solve_mis
        from repro.graphs.arrays import gnp_arrays

        arrays = gnp_arrays(500, 8 / 499, seed=1)
        fast = solve_mis(arrays, algorithm="fast-sleeping", seed=1,
                         engine="vectorized", rng="batched", result="arrays")
        assert fast.mis
        assert fast.node_stats  # lazy legacy view works

        graph = nx.gnp_random_graph(100, 0.05, seed=1)
        result = solve_mis(graph, algorithm="fast-sleeping", seed=1)
        assert result.mis
        assert result.node_averaged_awake_complexity > 0


class TestDesignExperimentIndex:
    def test_every_experiment_has_a_bench_file(self):
        design = read("DESIGN.md")
        import re

        targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert targets, "DESIGN.md lists no benchmark targets"
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_every_bench_file_is_indexed(self):
        design = read("DESIGN.md")
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in design, (
                f"{path.name} not listed in DESIGN.md's experiment index"
            )

    def test_experiment_ids_continuous(self):
        design = read("DESIGN.md")
        import re

        ids = sorted(
            int(m) for m in re.findall(r"\| E(\d+) \|", design)
        )
        assert ids == list(range(1, len(ids) + 1))


class TestExperimentsRecordsAll:
    def test_every_experiment_discussed(self):
        design = read("DESIGN.md")
        experiments = read("EXPERIMENTS.md")
        import re

        for exp_id in re.findall(r"\| (E\d+) \|", design):
            assert exp_id in experiments, (
                f"{exp_id} indexed in DESIGN.md but absent from "
                f"EXPERIMENTS.md"
            )


class TestExamplesDocumented:
    def test_every_example_has_docstring_and_main(self):
        for path in (ROOT / "examples").glob("*.py"):
            text = path.read_text()
            assert text.startswith('"""'), path.name
            assert "def main()" in text, path.name
            assert 'if __name__ == "__main__":' in text, path.name


class TestPerformanceGuideFreshness:
    """docs/performance.md must cover every public pipeline choice.

    Each choice is asserted in backticked form (`` `name` ``) so a value
    can only pass by being genuinely documented, not by substring luck.
    """

    def test_every_engine_choice_documented(self):
        from repro.sim.batch import ENGINES

        guide = read("docs/performance.md")
        for engine in ENGINES:
            assert f"`{engine}`" in guide, f"engine {engine!r} undocumented"

    def test_every_rng_stream_documented(self):
        from repro.sim.rng import RNG_STREAMS

        guide = read("docs/performance.md")
        for stream in RNG_STREAMS:
            assert f"`{stream}`" in guide, f"rng stream {stream!r} undocumented"

    def test_every_result_kind_documented(self):
        from repro.sim.array_result import RESULT_KINDS

        guide = read("docs/performance.md")
        for kind in RESULT_KINDS:
            assert f"`{kind}`" in guide, f"result kind {kind!r} undocumented"

    def test_every_graph_source_documented(self):
        from repro.graphs.arrays import GRAPH_SOURCES

        guide = read("docs/performance.md")
        for source in GRAPH_SOURCES:
            assert f"`{source}`" in guide, (
                f"graph source {source!r} undocumented"
            )

    def test_every_graph_rng_documented(self):
        from repro.graphs.arrays import GRAPH_RNGS

        guide = read("docs/performance.md")
        assert "`graph_rng=`" in guide or "`graph_rng`" in guide
        for stream in GRAPH_RNGS:
            assert f"`{stream}`" in guide, (
                f"graph_rng stream {stream!r} undocumented"
            )

    def test_support_matrix_names_every_algorithm(self):
        from repro.api import algorithm_names

        guide = read("docs/performance.md")
        for name in algorithm_names():
            assert f"`{name}`" in guide, (
                f"algorithm {name!r} missing from the support matrix"
            )

    def test_support_matrix_matches_capability_registry(self):
        """The matrix renders ENGINE_CAPABILITIES, the dispatch registry.

        A row that still tells a "generator-only" story for an algorithm
        the registry vectorizes (or vice versa) is exactly the staleness
        that shipped in the PR 3 era for ghaffari/abi -- the registry is
        the single source of truth, and this test makes the rendered
        matrix track it.
        """
        from repro.api import algorithm_names
        from repro.sim.fast_engine import ENGINE_CAPABILITIES

        assert set(ENGINE_CAPABILITIES) == set(algorithm_names())
        guide = read("docs/performance.md")
        rows = [
            line for line in guide.splitlines() if line.startswith("| `")
        ]
        for name, capability in ENGINE_CAPABILITIES.items():
            matching = [
                row for row in rows if row.startswith(f"| `{name}`")
            ]
            assert matching, f"no support-matrix row for {name!r}"
            assert any(
                "yes" in row and f"`{capability.engine}`" in row
                for row in matching
            ), (
                f"support-matrix row for {name!r} must say yes and name "
                f"`{capability.engine}` (the registry entry)"
            )

    def test_every_bench_artifact_referenced(self):
        guide = read("docs/performance.md")
        artifacts = sorted(
            (ROOT / "benchmarks" / "artifacts").glob("BENCH_*.json")
        )
        assert artifacts, "no committed benchmark artifacts found"
        for path in artifacts:
            assert path.name in guide, (
                f"{path.name} not referenced in docs/performance.md"
            )

    def test_array_family_registry_documented(self):
        from repro.graphs.arrays import ARRAY_FAMILIES

        guide = read("docs/performance.md")
        for family in ARRAY_FAMILIES:
            assert f"`{family}`" in guide, (
                f"array-native family {family!r} undocumented"
            )


class TestApiKnobTable:
    def test_every_plan_field_has_a_row(self):
        """Entry-point docstrings point at the docs/api.md knob table, so
        a RunPlan field without a row there is documented nowhere."""
        import dataclasses

        from repro import RunPlan

        documented = set()
        for line in read("docs/api.md").splitlines():
            if line.startswith("| `"):
                first_cell = line.split("|")[1]
                documented.update(re.findall(r"`(\w+)`", first_cell))
        for field in dataclasses.fields(RunPlan):
            assert field.name in documented, (
                f"RunPlan field {field.name!r} has no row in the "
                f"docs/api.md knob table"
            )


def _github_anchor(heading: str) -> str:
    """GitHub's heading -> anchor slug (lowercase, punctuation dropped,
    spaces to hyphens)."""
    text = heading.strip().lower()
    text = re.sub(r"`", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(text: str) -> set:
    anchors = set()
    in_code = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            in_code = not in_code
            continue
        if not in_code and line.startswith("#"):
            anchors.add(_github_anchor(line.lstrip("#")))
    return anchors


_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


class TestDocLinks:
    """Every relative link and anchor in the docs must resolve."""

    @pytest.mark.parametrize("name", DOC_FILES)
    def test_links_resolve(self, name):
        text = read(name)
        base = (ROOT / name).parent
        broken = []
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            dest = ROOT / name if not path_part else (base / path_part)
            if not dest.exists():
                broken.append(target)
                continue
            if anchor and dest.suffix == ".md":
                if anchor not in _anchors(dest.read_text()):
                    broken.append(target)
        assert not broken, f"dead links in {name}: {broken}"

    def test_docs_reference_the_performance_guide(self):
        # The guide is the entry point for every tuning knob; the README
        # and API docs must point readers at it.
        assert "docs/performance.md" in read("README.md")
        assert "performance.md" in read("docs/api.md")
