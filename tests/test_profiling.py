"""Unit tests for the phase-profiling layer (:mod:`repro.profiling`).

The profiler's contract has three load-bearing clauses the pipeline
instrumentation depends on:

* **zero cost / zero effect when disabled** -- the module-level
  :func:`~repro.profiling.phase` hands back one shared null object, and
  :func:`~repro.profiling.profiled_pulls` returns its iterable untouched;
* **self-time attribution** -- nested spans pause their parent, so the
  reported per-phase wall clocks *partition* the measured window instead
  of double-counting (the streaming CSR build pulls sampler chunks from
  inside its own phase);
* **artifact-shaped reporting** -- ``report()`` is the ``phases`` block
  committed into ``BENCH_scale_*`` artifacts, with deterministic
  ``calls`` counts and machine-varying ``_s``/``_mb`` keys.
"""

import time

import numpy as np
import pytest

import repro.profiling as prof_mod
from repro.profiling import (
    PIPELINE_PHASES,
    PhaseProfiler,
    active,
    peak_rss_mb,
    phase,
    profile_phases,
    profiled_pulls,
)


class TestDisabledPath:
    def test_phase_returns_the_shared_null_object(self):
        assert active() is None
        first = phase("engine")
        second = phase("sample")
        assert first is second  # one preallocated null span, no per-call
        with first:
            pass  # usable as a context manager, records nothing

    def test_profiled_pulls_returns_iterable_unchanged(self):
        items = [1, 2, 3]
        assert profiled_pulls("sample", items) is items

    def test_instrumented_code_runs_without_a_profiler(self):
        with phase("engine"):
            with phase("result_build"):
                pass  # nesting through the null object is fine


class TestActivation:
    def test_profile_phases_activates_and_clears(self):
        with profile_phases() as prof:
            assert active() is prof
        assert active() is None

    def test_activation_clears_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with profile_phases():
                raise RuntimeError("boom")
        assert active() is None

    def test_nested_activation_is_an_error(self):
        with profile_phases():
            with pytest.raises(RuntimeError, match="does not nest"):
                with profile_phases():
                    pass
        assert active() is None

    def test_out_of_order_end_is_an_error(self):
        prof = PhaseProfiler()
        prof.start_phase("a")
        prof.start_phase("b")
        with pytest.raises(RuntimeError, match="out of order"):
            prof.end_phase("a")


class TestSelfTimeAttribution:
    def test_nested_phase_pauses_the_parent(self):
        """Outer wall time excludes the inner span: self times partition."""
        with profile_phases() as prof:
            with phase("engine"):
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < 0.01:
                    pass
                with phase("result_build"):
                    t0 = time.perf_counter()
                    while time.perf_counter() - t0 < 0.03:
                        pass
        assert prof.calls == {"engine": 1, "result_build": 1}
        # The inner 30 ms must be attributed to result_build alone; a
        # double-counting stopwatch would give engine >= 40 ms.
        assert prof.wall_s["result_build"] >= 0.03
        assert prof.wall_s["engine"] < 0.03

    def test_profiled_pulls_books_pull_time_to_the_named_phase(self):
        def slow_chunks():
            for _ in range(3):
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < 0.01:
                    pass
                yield 1

        with profile_phases() as prof:
            with phase("csr_build"):
                total = sum(profiled_pulls("sample", slow_chunks()))
        assert total == 3
        assert prof.calls["sample"] == 4  # 3 items + the StopIteration pull
        assert prof.wall_s["sample"] >= 0.03
        assert prof.wall_s["csr_build"] < 0.03

    def test_calls_and_wall_accumulate_across_spans(self):
        with profile_phases() as prof:
            for _ in range(5):
                with phase("engine"):
                    pass
        assert prof.calls["engine"] == 5
        assert prof.wall_s["engine"] >= 0.0


class TestReporting:
    def test_report_shape_matches_the_artifact_phases_block(self):
        with profile_phases() as prof:
            with phase("csr_build"):
                with phase("sample"):
                    pass
            with phase("engine"):
                pass
        report = prof.report()
        # Pipeline order first, regardless of execution order.
        assert list(report) == ["sample", "csr_build", "engine"]
        for entry in report.values():
            assert entry["calls"] >= 1
            assert isinstance(entry["wall_s"], float)

    def test_extra_phase_names_sort_after_pipeline_ones(self):
        with profile_phases() as prof:
            with phase("zeta"):
                pass
            with phase("engine"):
                pass
        assert prof.phase_names() == ["engine", "zeta"]

    def test_trace_records_per_phase_peaks(self):
        with profile_phases(trace=True) as prof:
            with phase("engine"):
                blob = bytearray(4 * 1024 * 1024)
                del blob
        entry = prof.report()["engine"]
        assert entry["peak_traced_mb"] >= 4.0
        summary = prof.summary()
        assert set(summary) >= {"phases", "profiled_wall_s"}
        assert summary["phases"]["engine"]["peak_traced_mb"] >= 4.0

    def test_summary_carries_process_rss(self):
        rss = peak_rss_mb()
        if rss is None:
            pytest.skip("no resource module on this platform")
        assert rss > 0
        with profile_phases() as prof:
            with phase("engine"):
                pass
        assert prof.summary()["peak_rss_mb"] >= rss

    def test_format_renders_one_row_per_phase(self):
        with profile_phases(trace=True) as prof:
            with phase("sample"):
                pass
            with phase("engine"):
                pass
        text = prof.format()
        lines = text.splitlines()
        assert "phase" in lines[0] and "wall_s" in lines[0]
        assert any(line.startswith("sample") for line in lines)
        assert any(line.startswith("engine") for line in lines)
        assert lines[-1].startswith("total")

    def test_pipeline_phase_constant_is_the_documented_order(self):
        assert PIPELINE_PHASES == (
            "sample", "csr_build", "engine", "result_build"
        )


class TestPipelineIntegration:
    def test_streamed_trial_populates_all_four_phases(self, monkeypatch):
        """One profiled end-to-end trial on the chunked v2 sampler books
        time to every pipeline phase with deterministic call counts (the
        artifact drift check compares ``calls``)."""
        import repro.graphs.arrays as arrays_mod
        from repro.api import solve_mis
        from repro.plan import RunPlan
        from repro.sim.rng import graph_stream_key

        monkeypatch.setattr(arrays_mod, "GNP_V2_CHUNK", 1 << 11)
        plan = RunPlan(
            algorithm="fast-sleeping", family="gnp-dense", n=400, seed=3,
            engine="vectorized", rng="batched", graph_rng="batched",
            graph_source="arrays", result="arrays",
        )
        with profile_phases(trace=True) as prof:
            graph = arrays_mod.gnp_arrays_v2(400, 0.5, seed=3)
            result = solve_mis(graph, plan=plan)
        assert result.is_valid_mis()
        report = prof.report()
        assert set(PIPELINE_PHASES) <= set(report)
        # One pass over the chunk stream: one sample call per chunk
        # pulled, plus the pull that finds the stream exhausted.
        chunks = arrays_mod._gnp_v2_pair_chunks(
            400, 0.5, np.uint64(graph_stream_key(3)), 1 << 11
        )
        assert report["sample"]["calls"] == sum(1 for _ in chunks) + 1 > 2
        assert report["result_build"]["calls"] == 1

    def test_rerunning_the_same_plan_gives_identical_calls(self):
        """``calls`` is the deterministic half of the phases block."""
        from repro.api import solve_mis
        from repro.graphs.arrays import gnp_arrays_v2

        def one_run():
            with profile_phases() as prof:
                graph = gnp_arrays_v2(300, 0.1, seed=5)
                solve_mis(
                    graph, "fast-sleeping", engine="vectorized",
                    rng="batched", result="arrays",
                )
            return prof.calls

        assert one_run() == one_run()

    def test_module_state_is_clean_for_other_tests(self):
        assert prof_mod._ACTIVE is None
