"""Experiment runner and unified baseline cache."""

import pytest

from repro.analysis import (
    EngineOptions,
    ExperimentError,
    UnifiedBaseline,
    run_experiment,
    run_sweep,
    run_variant_comparison,
)
from repro.certify import CertifyConfig
from repro.core import CompilationError
from repro.core import HEURISTIC_ITERATIVE, SIMPLE
from repro.machine import two_cluster_gp
from repro.workloads import paper_suite


@pytest.fixture(scope="module")
def small_suite():
    return paper_suite(20)


class TestRunExperiment:
    def test_outcomes_cover_all_loops(self, small_suite):
        result = run_experiment(
            small_suite, two_cluster_gp(),
            certify_config=CertifyConfig(strict=True),
        )
        assert result.n_loops == 20
        assert all(outcome.ok for outcome in result.outcomes)
        names = {outcome.loop_name for outcome in result.outcomes}
        assert len(names) == 20

    def test_deviation_non_negative_in_practice(self, small_suite):
        result = run_experiment(small_suite, two_cluster_gp())
        assert all(outcome.deviation >= 0 for outcome in result.outcomes)

    def test_match_percentage_consistent(self, small_suite):
        result = run_experiment(small_suite, two_cluster_gp())
        matches = sum(1 for o in result.outcomes if o.deviation == 0)
        assert result.match_percentage == pytest.approx(
            100.0 * matches / 20
        )

    def test_label_defaults_to_machine_and_config(self, small_suite):
        result = run_experiment(small_suite[:2], two_cluster_gp())
        assert "2cl-gp" in result.label
        assert "Heuristic Iterative" in result.label

    def test_elapsed_recorded(self, small_suite):
        result = run_experiment(small_suite[:2], two_cluster_gp())
        assert result.elapsed_seconds > 0


class TestFailurePaths:
    @pytest.fixture
    def failing_compile(self, small_suite, monkeypatch):
        """compile_loop that fails on the third distinct loop."""
        import repro.analysis.experiment as experiment_module

        real = experiment_module.compile_loop
        doomed = small_suite[2].name

        def flaky(ddg, machine, *args, **kwargs):
            if ddg.name == doomed and not machine.is_unified:
                raise CompilationError(f"injected failure on {ddg.name}")
            return real(ddg, machine, *args, **kwargs)

        monkeypatch.setattr(experiment_module, "compile_loop", flaky)
        return doomed

    def test_lenient_records_failure_and_continues(self, small_suite,
                                                   failing_compile):
        result = run_experiment(small_suite[:5], two_cluster_gp())
        assert result.n_loops == 5
        assert result.n_failed == 1
        failed = result.failures[0]
        assert failed.loop_name == failing_compile
        assert failed.status == "failed"
        assert "injected failure" in failed.error
        # The baseline II was computed before the clustered failure.
        assert failed.unified_ii > 0
        # Measured loops are unaffected, figures skip the failure.
        assert len(result.measured) == 4
        assert result.histogram.n_loops == 4

    def test_lenient_records_malformed_loop(self, small_suite):
        from repro.ddg import Opcode, build_ddg

        bad = build_ddg(
            ops=[("a", Opcode.ALU), ("b", Opcode.ALU)],
            deps=[("a", "b", 0), ("b", "a", 0)],
            name="zero_distance_cycle",
        )
        suite = list(small_suite[:3]) + [bad] + list(small_suite[3:5])
        result = run_experiment(suite, two_cluster_gp())
        assert result.n_loops == 6
        assert [o.loop_name for o in result.failures] == [
            "zero_distance_cycle"
        ]
        assert "invalid loop" in result.failures[0].error

    def test_strict_elapsed_set_on_failure(self, small_suite,
                                           failing_compile):
        with pytest.raises(ExperimentError) as exc_info:
            run_experiment(small_suite[:5], two_cluster_gp(),
                           strict=True)
        partial = exc_info.value.partial_result
        assert partial.elapsed_seconds > 0
        assert exc_info.value.loop_name == failing_compile
        # The two loops before the failure were measured.
        assert partial.n_loops == 2
        assert all(outcome.ok for outcome in partial.outcomes)

    def test_strict_failure_is_still_a_compilation_error(
            self, small_suite, failing_compile):
        # Existing handlers that catch CompilationError keep working.
        with pytest.raises(CompilationError):
            run_experiment(small_suite[:5], two_cluster_gp(),
                           strict=True)

    def test_failure_counter_bumped(self, small_suite, failing_compile):
        from repro import obs

        with obs.tracing() as trace:
            run_experiment(small_suite[:5], two_cluster_gp())
        assert trace.counter("experiment.failures") == 1
        assert trace.counter("experiment.loops") == 4

    def test_strict_finishes_the_run_before_raising(
            self, small_suite, failing_compile):
        from repro import obs

        with obs.tracing() as trace:
            with pytest.raises(ExperimentError):
                run_experiment(small_suite[:5], two_cluster_gp(),
                               strict=True)
        # The loops after the failed one were measured too.
        assert trace.counter("experiment.loops") == 4

    def test_strict_malformed_loop_raises_experiment_error(
            self, small_suite):
        from repro.ddg import Opcode, build_ddg

        bad = build_ddg(
            ops=[("a", Opcode.ALU), ("b", Opcode.ALU)],
            deps=[("a", "b", 0), ("b", "a", 0)],
            name="zero_distance_cycle",
        )
        with pytest.raises(ExperimentError) as exc_info:
            run_experiment(list(small_suite[:2]) + [bad],
                           two_cluster_gp(), strict=True)
        assert exc_info.value.loop_name == "zero_distance_cycle"
        assert "invalid loop" in str(exc_info.value)
        assert exc_info.value.partial_result.n_loops == 2


class TestBaselineCache:
    def test_cache_shared_across_experiments(self, small_suite):
        baseline = UnifiedBaseline()
        machine = two_cluster_gp()
        run_experiment(small_suite, machine, baseline=baseline)
        assert len(baseline) == 20
        run_experiment(small_suite, machine, config=SIMPLE,
                       baseline=baseline)
        assert len(baseline) == 20  # no recomputation

    def test_cache_is_correct(self, small_suite):
        from repro.core import compile_loop
        baseline = UnifiedBaseline()
        machine = two_cluster_gp()
        unified = machine.unified_equivalent()
        ddg = small_suite[0]
        run_experiment([ddg], machine, baseline=baseline)
        cached = baseline.lookup(unified.name, ddg.name)
        assert cached == compile_loop(ddg, unified).ii

    def test_duplicate_name_different_content_rejected(self, small_suite):
        baseline = UnifiedBaseline()
        unified = two_cluster_gp().unified_equivalent()
        first = small_suite[0]
        impostor = small_suite[1].copy(name=first.name)
        baseline.seed(unified.name, first, 3)
        with pytest.raises(ValueError, match="duplicate loop name"):
            baseline.seed(unified.name, impostor, 3)
        with pytest.raises(ValueError, match="duplicate loop name"):
            run_experiment([first, impostor], two_cluster_gp())

    def test_same_loop_twice_is_fine(self, small_suite):
        baseline = UnifiedBaseline()
        machine = two_cluster_gp()
        unified = machine.unified_equivalent()
        loop = small_suite[0]
        result = run_experiment([loop, loop.copy()], machine,
                                baseline=baseline)
        first, again = result.outcomes
        assert first == again
        assert baseline.lookup(unified.name, loop.name) == first.unified_ii
        assert len(baseline) == 1

    def test_baseline_time_tracked_separately(self, small_suite):
        baseline = UnifiedBaseline()
        machine = two_cluster_gp()
        first = run_experiment(small_suite, machine, baseline=baseline)
        assert first.baseline_seconds > 0
        # A second experiment reusing the cache pays no baseline time,
        # so its elapsed_seconds is no longer skewed by cache misses
        # charged to whichever experiment ran first.
        second = run_experiment(small_suite, machine, config=SIMPLE,
                                baseline=baseline)
        assert second.baseline_seconds == 0.0


class TestSweepAndComparison:
    def test_sweep_one_result_per_machine(self, small_suite):
        machines = [two_cluster_gp(buses=b) for b in (1, 2)]
        results = run_sweep(small_suite[:5], machines,
                            labels=["1 bus", "2 buses"])
        assert [r.label for r in results] == ["1 bus", "2 buses"]

    def test_sweep_label_mismatch_rejected(self, small_suite):
        with pytest.raises(ValueError):
            run_sweep(small_suite[:2], [two_cluster_gp()], labels=["a", "b"])

    def test_variant_comparison_labels_by_config(self, small_suite):
        results = run_variant_comparison(
            small_suite[:5], two_cluster_gp(), [SIMPLE, HEURISTIC_ITERATIVE]
        )
        assert [r.label for r in results] == [
            "Simple", "Heuristic Iterative",
        ]

    def test_more_buses_never_hurt(self, small_suite):
        results = run_sweep(
            small_suite,
            [two_cluster_gp(buses=1), two_cluster_gp(buses=4)],
        )
        assert (results[1].match_percentage
                >= results[0].match_percentage - 1e-9)


class TestReferenceEquality:
    """Every way of running the runner reproduces the frozen reference
    (:mod:`repro.baselines`) exactly."""

    @pytest.mark.parametrize("cache", ["none", "cold", "warm-resume"])
    @pytest.mark.parametrize("budget", [0.0, 30.0])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_outcomes_equal_reference(
        self, small_suite, reference_outcomes, tmp_path,
        workers, budget, cache,
    ):
        machine = two_cluster_gp()
        options = EngineOptions(
            workers=workers, timeout_seconds=budget,
            cache_dir=None if cache == "none" else str(tmp_path),
            resume=cache == "warm-resume",
        )
        if cache == "warm-resume":
            run_experiment(small_suite, machine, options=options)
        result = run_experiment(small_suite, machine, options=options)
        assert result.outcomes == reference_outcomes(small_suite, machine)
        expected_hits = len(small_suite) if cache == "warm-resume" else 0
        assert result.cache_hits == expected_hits
