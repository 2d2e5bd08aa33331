"""The pipeline's instrumentation: spans and counters observed during
real compilations, and the disabled-mode guarantee."""

import pytest

from repro import (
    HEURISTIC,
    HEURISTIC_ITERATIVE,
    compile_loop,
    four_cluster_grid,
    obs,
    two_cluster_gp,
)
from repro.analysis import run_experiment
from repro.workloads import paper_suite


@pytest.fixture
def traced_compile(intro_example, two_gp):
    with obs.tracing() as trace:
        result = compile_loop(intro_example, two_gp)
    return trace, result


class TestCompileInstrumentation:
    def test_span_hierarchy(self, traced_compile):
        trace, result = traced_compile
        compile_span, = trace.find("compile")
        assert compile_span.attrs["loop"] == "intro"
        assert compile_span.attrs["ii"] == result.ii
        attempts = trace.find("attempt")
        assert len(attempts) == result.attempts
        assert attempts[-1].attrs["outcome"] == "ok"
        assert trace.find("assign")
        assert trace.find("schedule")

    def test_counters_match_stats(self, traced_compile):
        trace, result = traced_compile
        assert trace.counter("driver.attempts") == result.attempts
        # Every placement happens inside an attempt, so the compile's
        # totals are the sums of its attempts' counters.
        attempts = trace.find("attempt")
        for name in ("assign.placements", "sched.placements"):
            assert trace.counter(name) == sum(
                span.total_counters().get(name, 0) for span in attempts
            )
        # The final attempt placed every op of the annotated graph once,
        # plus once more per displacement.
        final = attempts[-1].total_counters()
        assert final["assign.placements"] >= len(result.ddg)
        assert final["sched.placements"] == len(result.annotated.ddg) + \
            final.get("sched.backtracks", 0)
        assert trace.counter("sched.slot_probes") > 0

    def test_selection_outcomes_accounted(self, traced_compile):
        trace, _ = traced_compile
        committed = trace.counter("assign.select.committed")
        forced = trace.counter("assign.select.forced")
        assert committed + forced == \
            trace.counter("assign.budget_spent") - \
            trace.counter("assign.select.abandoned")

    def test_copy_replans_observed(self, traced_compile):
        trace, _ = traced_compile
        assert trace.counter("copies.replans") > 0

    def test_failed_attempts_counted(self, intro_example, two_gp):
        with obs.tracing() as trace:
            result = compile_loop(intro_example, two_gp)
        restarts = result.attempts - 1
        assert trace.counter("driver.assign_failures") + \
            trace.counter("driver.schedule_failures") == restarts

    def test_unified_compile_has_no_assign_span(self, intro_example,
                                                uni8):
        with obs.tracing() as trace:
            compile_loop(intro_example, uni8)
        assert trace.find("compile")
        assert not trace.find("assign")  # trivial annotation: no span

    def test_compilation_untouched_by_tracing(self, intro_example,
                                              two_gp):
        baseline = compile_loop(intro_example, two_gp)
        with obs.tracing():
            traced = compile_loop(intro_example, two_gp)
        assert traced.ii == baseline.ii
        assert traced.schedule.start == baseline.schedule.start


class TestAssignmentStops:
    def test_every_failed_attempt_says_why(self):
        # A grid slice that retries: the iterative variant stops on
        # cycles and on its budget, the non-iterative one abandons.
        machine = four_cluster_grid()
        with obs.tracing() as trace:
            for config in (HEURISTIC_ITERATIVE, HEURISTIC):
                for ddg in paper_suite(120)[-60:]:
                    compile_loop(ddg, machine, config)
        failures = trace.counter("driver.assign_failures")
        assert failures == trace.counter("assign.budget_exhausted") + \
            trace.counter("assign.cycle_stops") + \
            trace.counter("assign.select.abandoned")
        spans = trace.find("assign")
        failed = [span for span in spans if not span.attrs["succeeded"]]
        assert len(failed) == failures
        stops = [span.attrs["stop"] for span in failed]
        assert set(stops) == {"cycle", "budget", "abandoned"}
        assert all(
            "stop" not in span.attrs
            for span in spans if span.attrs["succeeded"]
        )
        for span in failed:
            if span.attrs["stop"] == "cycle":
                assert 1 <= span.attrs["cycle_period"] < \
                    span.attrs["cycle_step"]
            else:
                assert "cycle_step" not in span.attrs


class TestExperimentInstrumentation:
    def test_per_loop_spans(self):
        loops = paper_suite(5)
        with obs.tracing() as trace:
            result = run_experiment(loops, two_cluster_gp())
        experiment_span, = trace.find("experiment")
        assert experiment_span.attrs["loops"] == 5
        loop_spans = trace.find("loop")
        assert len(loop_spans) == 5
        assert {span.attrs["loop"] for span in loop_spans} == \
            {ddg.name for ddg in loops}
        for span, outcome in zip(loop_spans, result.outcomes):
            assert span.attrs["deviation"] == outcome.deviation
        assert trace.counter("experiment.loops") == 5


class TestDefaultOff:
    def test_compile_does_not_trace_by_default(self, intro_example,
                                               two_gp):
        compile_loop(intro_example, two_gp)
        assert obs.current_trace() is None
