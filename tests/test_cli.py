"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "fast-sleeping"
        assert args.n == 128

    def test_sizes_parsing(self):
        args = build_parser().parse_args(["sweep", "--sizes", "8,16,32"])
        assert args.sizes == [8, 16, 32]

    def test_bad_sizes_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--sizes", "8,x"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "nope"])

    def test_pipeline_defaults(self):
        for command in ("run", "sweep", "table1"):
            args = build_parser().parse_args([command])
            assert args.graph_source == "auto"
            assert args.graph_rng == "legacy"
            assert args.result == "auto"

    def test_unknown_graph_rng_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--graph-rng", "v3"])

    def test_unknown_graph_source_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--graph-source", "csr"])

    def test_unknown_result_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--result", "dataframe"])


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--n", "24", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "MIS size" in out
        assert "valid MIS          : True" in out

    def test_run_luby(self, capsys):
        assert main(["run", "--algorithm", "luby", "--n", "24"]) == 0
        assert "luby" in capsys.readouterr().out

    def test_run_profile_phases_times_untraced(self, capsys, monkeypatch):
        import tracemalloc

        import repro.analysis.complexity as complexity

        tracing = []
        real = complexity.run_planned_trial

        def spy(*args, **kwargs):
            tracing.append(tracemalloc.is_tracing())
            return real(*args, **kwargs)

        monkeypatch.setattr(complexity, "run_planned_trial", spy)
        argv = ["run", "--n", "200", "--family", "gnp-sparse",
                "--engine", "vectorized", "--graph-source", "arrays",
                "--profile-phases"]
        assert main(argv) == 0
        assert tracing == [False]
        out = capsys.readouterr().out
        assert "valid MIS          : True" in out
        engine = next(
            line for line in out.splitlines() if line.startswith("engine")
        )
        assert engine.split()[-1] == "-"  # no traced peak
        assert "peak_rss_mb=" in out.splitlines()[-1]

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep",
                "--algorithm",
                "luby",
                "--sizes",
                "12,24",
                "--trials",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean" in out

    def test_table1(self, capsys):
        code = main(
            ["table1", "--sizes", "12,24", "--trials", "1", "--family", "cycle"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "node_averaged_awake" in out
        assert "O(1)" in out

    def test_table1_markdown(self, capsys):
        main(
            [
                "table1",
                "--sizes",
                "12",
                "--trials",
                "1",
                "--family",
                "cycle",
                "--markdown",
            ]
        )
        assert "| algorithm |" in capsys.readouterr().out

    def test_tree(self, capsys):
        code = main(
            ["tree", "--n", "16", "--algorithm", "sleeping", "--max-depth", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "root k=" in out

    def test_energy(self, capsys):
        code = main(["energy", "--n", "32", "--family", "cycle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fast-sleeping" in out


class TestArrayNativeFlags:
    def test_run_array_native_matches_networkx(self, capsys):
        base = ["run", "--n", "40", "--seed", "3", "--engine", "vectorized"]
        assert main(base + ["--graph-source", "networkx",
                            "--result", "legacy"]) == 0
        legacy_out = capsys.readouterr().out
        assert main(base + ["--graph-source", "arrays",
                            "--result", "arrays"]) == 0
        arrays_out = capsys.readouterr().out
        # Same seeded graph and algorithm: every printed measure matches.
        assert arrays_out == legacy_out

    def test_sweep_array_native(self, capsys):
        code = main(
            ["sweep", "--algorithm", "sleeping", "--sizes", "16,32",
             "--trials", "2", "--graph-source", "arrays",
             "--result", "arrays", "--rng", "batched"]
        )
        assert code == 0
        assert "mean" in capsys.readouterr().out

    def test_arrays_source_for_unsupported_family_errors(self, capsys):
        code = main(
            ["sweep", "--family", "tree", "--sizes", "12",
             "--graph-source", "arrays"]
        )
        assert code == 2
        assert "no array-native sampler" in capsys.readouterr().err

    def test_table1_array_native(self, capsys):
        code = main(
            ["table1", "--sizes", "12", "--trials", "1", "--family",
             "gnp-sparse", "--graph-source", "arrays", "--result", "arrays"]
        )
        assert code == 0
        assert "node_averaged_awake" in capsys.readouterr().out

    def test_sweep_batched_graph_rng(self, capsys):
        code = main(
            ["sweep", "--algorithm", "sleeping", "--sizes", "64",
             "--trials", "2", "--rng", "batched", "--graph-rng", "batched"]
        )
        assert code == 0
        assert "mean" in capsys.readouterr().out

    def test_batched_graph_rng_with_networkx_source_errors(self, capsys):
        code = main(
            ["sweep", "--sizes", "12", "--graph-source", "networkx",
             "--graph-rng", "batched"]
        )
        assert code == 2
        assert "graph_rng='batched'" in capsys.readouterr().err

    def test_batched_graph_rng_for_unsupported_family_errors(self, capsys):
        code = main(
            ["run", "--family", "tree", "--n", "12",
             "--graph-rng", "batched"]
        )
        assert code == 2
        assert "graph_rng='legacy'" in capsys.readouterr().err


class TestManifestSweep:
    @pytest.fixture
    def manifest_path(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        assert main(
            ["sweep", "--sizes", "12", "--trials", "2",
             "--emit-manifest", path]
        ) == 0
        capsys.readouterr()
        return path

    def test_jobs_without_sweep_dir_refused(self, manifest_path, capsys):
        """Without a frontier the manifest's trials run in this process,
        so ``--jobs 2`` would be ignored; it is refused instead."""
        code = main(["sweep", "--manifest", manifest_path, "--jobs", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--sweep-dir" in captured.err
        assert captured.out == ""

    def test_one_job_without_sweep_dir_runs(self, manifest_path, capsys):
        assert main(["sweep", "--manifest", manifest_path]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["sweep", "--manifest", manifest_path, "--jobs", "1"]
        ) == 0
        assert capsys.readouterr().out == plain
        assert "mean" in plain
