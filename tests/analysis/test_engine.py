"""What EngineOptions adds to the experiment runner: workers, the
per-loop budget, the result cache, observability merge.

Outcomes are compared against the frozen reference
(:mod:`repro.baselines`, via the ``reference_outcomes`` fixture), never
against another run mode of the same runner.
"""

import asyncio
import time

import pytest

from repro import obs
from repro.analysis import (
    EngineOptions,
    ExperimentError,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    UnifiedBaseline,
    run_experiment,
)
from repro.core import HEURISTIC_ITERATIVE, SIMPLE
from repro.ddg import Opcode, build_ddg
from repro.machine import two_cluster_gp, four_cluster_gp
from repro.service import (
    CompileRequest,
    CompileService,
    ServiceConfig,
    ShardedResultCache,
    WorkerPool,
)
from repro.service.cache import CACHE_VERSION
from repro.workloads import (
    compile_fingerprint,
    config_fingerprint,
    machine_fingerprint,
    paper_suite,
)


@pytest.fixture(scope="module")
def small_suite():
    return paper_suite(20)


@pytest.fixture(scope="module")
def slice50():
    return paper_suite(50)


def _bad_loop(name="bad_loop"):
    """A malformed loop (zero-distance cycle) that cannot compile."""
    return build_ddg(
        ops=[("a", Opcode.ALU), ("b", Opcode.ALU)],
        deps=[("a", "b", 0), ("b", "a", 0)],
        name=name,
    )


def _cache(path) -> ShardedResultCache:
    return ShardedResultCache(str(path), CACHE_VERSION)


class TestSerialParallelEquality:
    def test_parallel_matches_serial_on_50_loops(
        self, slice50, reference_outcomes,
    ):
        machine = two_cluster_gp()
        parallel = run_experiment(
            slice50, machine, options=EngineOptions(workers=4)
        )
        assert parallel.outcomes == reference_outcomes(slice50, machine)

    def test_inline_engine_matches_serial(
        self, small_suite, reference_outcomes,
    ):
        machine = four_cluster_gp()
        inline = run_experiment(small_suite, machine)
        assert inline.outcomes == reference_outcomes(small_suite, machine)

    def test_equality_holds_with_injected_failure(
        self, small_suite, reference_outcomes,
    ):
        machine = two_cluster_gp()
        suite = (list(small_suite[:7]) + [_bad_loop()]
                 + list(small_suite[7:14]))
        inline = run_experiment(suite, machine)
        parallel = run_experiment(
            suite, machine, options=EngineOptions(workers=3)
        )
        assert parallel.outcomes == inline.outcomes
        assert parallel.n_failed == 1
        assert parallel.measured == reference_outcomes(
            small_suite[:14], machine
        )

    def test_merge_preserves_suite_order(self, small_suite):
        machine = two_cluster_gp()
        result = run_experiment(
            small_suite, machine,
            options=EngineOptions(workers=4, chunk_size=1),
        )
        assert [o.loop_name for o in result.outcomes] == [
            loop.name for loop in small_suite
        ]


class TestWorkerFailurePaths:
    def test_bad_loop_marked_failed_suite_completes(self, small_suite):
        suite = list(small_suite[:6]) + [_bad_loop()]
        result = run_experiment(
            suite, two_cluster_gp(), options=EngineOptions(workers=2)
        )
        assert result.n_loops == 7
        assert [o.loop_name for o in result.failures] == ["bad_loop"]
        assert result.failures[0].status == STATUS_FAILED
        assert "invalid loop" in result.failures[0].error

    def test_strict_mode_aborts_with_partial_result(self, small_suite):
        suite = list(small_suite[:4]) + [_bad_loop()] + \
            list(small_suite[4:8])
        with pytest.raises(ExperimentError) as exc_info:
            run_experiment(
                suite, two_cluster_gp(), strict=True,
                options=EngineOptions(workers=2),
            )
        assert exc_info.value.loop_name == "bad_loop"
        partial = exc_info.value.partial_result
        assert partial.n_loops == 4
        assert all(outcome.ok for outcome in partial.outcomes)

    def test_compilation_error_recorded(self, small_suite, monkeypatch):
        import repro.analysis.experiment as experiment_module
        from repro.core import CompilationError

        real = experiment_module.compile_loop
        doomed = small_suite[3].name

        def flaky(ddg, machine, *args, **kwargs):
            if ddg.name == doomed and not machine.is_unified:
                raise CompilationError("injected")
            return real(ddg, machine, *args, **kwargs)

        monkeypatch.setattr(experiment_module, "compile_loop", flaky)
        result = run_experiment(small_suite[:6], two_cluster_gp())
        failed = result.failures
        assert [o.loop_name for o in failed] == [doomed]
        assert failed[0].status == STATUS_FAILED
        # The unified baseline succeeded before the clustered failure.
        assert failed[0].unified_ii > 0


class TestTimeout:
    """The budget is the worker pool's task deadline: the pool kills the
    worker of an overdue loop, so the run does not wait the loop out."""

    BUDGET_S = 0.2

    def _run_with_stuck_loop(self, suite, monkeypatch, workers,
                             baseline=None):
        import repro.analysis.experiment as experiment_module

        real = experiment_module.compile_loop
        stuck = suite[2].name

        def sluggish(ddg, machine, *args, **kwargs):
            if ddg.name == stuck and not machine.is_unified:
                time.sleep(30.0)
            return real(ddg, machine, *args, **kwargs)

        monkeypatch.setattr(experiment_module, "compile_loop", sluggish)
        # Forked workers inherit the patched compile_loop.
        monkeypatch.setenv("REPRO_SERVICE_START_METHOD", "fork")
        pool = WorkerPool(workers=max(1, workers))
        try:
            started = time.monotonic()
            result = run_experiment(
                suite, two_cluster_gp(), baseline=baseline,
                options=EngineOptions(
                    workers=workers, timeout_seconds=self.BUDGET_S,
                    pool=pool,
                ),
            )
            elapsed = time.monotonic() - started
        finally:
            pool.close()
        assert elapsed < 10.0
        assert result.n_loops == len(suite)
        assert [o.loop_name for o in result.failures] == [stuck]
        timed_out = result.failures[0]
        assert timed_out.status == STATUS_TIMEOUT
        assert timed_out.error == "exceeded the 0.2s per-loop budget"
        return timed_out

    def test_slow_loop_skipped_as_timeout(self, small_suite,
                                          monkeypatch):
        timed_out = self._run_with_stuck_loop(
            small_suite[:5], monkeypatch, workers=0
        )
        # The worker died with the loop's baseline II: none was known.
        assert timed_out.unified_ii == 0

    def test_slow_loop_skipped_as_timeout_on_two_workers(
        self, small_suite, monkeypatch,
    ):
        machine = two_cluster_gp()
        baseline = UnifiedBaseline()
        baseline.seed(machine.unified_equivalent().name,
                      small_suite[2], 7)
        timed_out = self._run_with_stuck_loop(
            small_suite[:5], monkeypatch, workers=2, baseline=baseline
        )
        # A baseline II known before the run survives the timeout.
        assert timed_out.unified_ii == 7

    def test_no_budget_means_no_timeouts(self, small_suite):
        result = run_experiment(
            small_suite[:5], two_cluster_gp(),
            options=EngineOptions(timeout_seconds=0.0),
        )
        assert result.n_failed == 0


class TestResultCache:
    def test_miss_then_hit(self, small_suite, tmp_path):
        machine = two_cluster_gp()
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        first = run_experiment(small_suite[:8], machine, options=options)
        assert first.cache_hits == 0
        assert len(_cache(tmp_path)) == 8
        second = run_experiment(small_suite[:8], machine, options=options)
        assert second.cache_hits == 8
        assert second.outcomes == first.outcomes

    def test_resume_only_computes_the_tail(
        self, small_suite, tmp_path, reference_outcomes,
    ):
        machine = two_cluster_gp()
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        run_experiment(small_suite[:5], machine, options=options)
        # An "interrupted" sweep restarted over a longer prefix of the
        # same suite recomputes only the new loops.
        result = run_experiment(small_suite[:9], machine, options=options)
        assert result.cache_hits == 5
        assert result.n_loops == 9
        assert result.outcomes == reference_outcomes(
            small_suite[:9], machine
        )

    def test_without_resume_cache_is_write_only(self, small_suite,
                                                tmp_path):
        machine = two_cluster_gp()
        write_only = EngineOptions(cache_dir=str(tmp_path))
        run_experiment(small_suite[:4], machine, options=write_only)
        again = run_experiment(small_suite[:4], machine,
                               options=write_only)
        assert again.cache_hits == 0
        assert len(_cache(tmp_path)) == 4

    def test_key_depends_on_machine_and_config(self, small_suite,
                                               tmp_path):
        loop = small_suite[0]
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)

        def hits(loops, machine, config=HEURISTIC_ITERATIVE):
            return run_experiment(
                loops, machine, config, options=options
            ).cache_hits

        hits([loop], two_cluster_gp())
        assert hits([loop], two_cluster_gp()) == 1
        assert hits([loop], four_cluster_gp()) == 0
        assert hits([loop], two_cluster_gp(), SIMPLE) == 0
        assert hits([small_suite[1]], two_cluster_gp()) == 0

    def test_machine_fingerprint_sees_resources(self):
        assert (machine_fingerprint(two_cluster_gp(buses=1))
                != machine_fingerprint(two_cluster_gp(buses=2)))

    def test_config_fingerprint_sees_knobs(self):
        assert (config_fingerprint(SIMPLE)
                != config_fingerprint(HEURISTIC_ITERATIVE))

    def test_failed_outcomes_are_cached(self, tmp_path, small_suite):
        machine = two_cluster_gp()
        suite = list(small_suite[:3]) + [_bad_loop()]
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        run_experiment(suite, machine, options=options)
        replay = run_experiment(suite, machine, options=options)
        assert replay.cache_hits == 4
        assert replay.failures[0].status == STATUS_FAILED

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, small_suite):
        machine = two_cluster_gp()
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        run_experiment(small_suite[:3], machine, options=options)
        for shard in tmp_path.iterdir():
            for entry in shard.iterdir():
                entry.write_text("{not json")
        result = run_experiment(small_suite[:3], machine, options=options)
        assert result.cache_hits == 0
        assert result.n_failed == 0

    def test_cache_object_len(self, tmp_path, small_suite):
        assert len(_cache(tmp_path)) == 0
        run_experiment(
            small_suite[:3], two_cluster_gp(),
            options=EngineOptions(cache_dir=str(tmp_path)),
        )
        assert len(_cache(tmp_path)) == 3

    def test_old_flat_cache_directory_reads_as_empty(self, tmp_path,
                                                     small_suite):
        # Before the runner stored outcomes in the sharded cache, each
        # outcome was a flat DIR/<key>.json file; those are ignored.
        (tmp_path / ("ab" * 32 + ".json")).write_text(
            '{"version": 3, "loop_name": "x"}'
        )
        result = run_experiment(
            small_suite[:2], two_cluster_gp(),
            options=EngineOptions(cache_dir=str(tmp_path), resume=True),
        )
        assert result.cache_hits == 0
        assert len(_cache(tmp_path)) == 2

    def test_runner_and_service_share_a_cache_dir(self, small_suite,
                                                  tmp_path):
        loop = small_suite[0]
        machine = two_cluster_gp()
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)

        async def serve():
            config = ServiceConfig(cache_dir=str(tmp_path))
            async with CompileService(config) as service:
                return await service.submit(
                    CompileRequest(loop=loop, machine="2gp")
                )

        assert not asyncio.run(serve()).cached
        first = run_experiment([loop], machine, options=options)
        assert first.cache_hits == 0
        second = run_experiment([loop], machine, options=options)
        assert second.cache_hits == 1
        assert second.outcomes == first.outcomes
        reply = asyncio.run(serve())
        assert reply.cached
        assert reply.ii == first.outcomes[0].clustered_ii
        # Two documents: the service reply under the bare request key,
        # the runner's outcome under a key tagged with its record kind.
        cache = _cache(tmp_path)
        assert len(cache) == 2
        assert cache.get(
            compile_fingerprint(loop, machine, HEURISTIC_ITERATIVE)
        )["mii"] > 0


class TestBaselineSharing:
    def test_parallel_run_seeds_shared_baseline(self, small_suite):
        baseline = UnifiedBaseline()
        machine = two_cluster_gp()
        run_experiment(
            small_suite[:10], machine, baseline=baseline,
            options=EngineOptions(workers=2),
        )
        assert len(baseline) == 10
        # A second sweep entry of the same width reuses every entry.
        reuse = run_experiment(
            small_suite[:10], machine, config=SIMPLE, baseline=baseline,
            options=EngineOptions(workers=2),
        )
        assert reuse.baseline_seconds == 0.0


class TestObsMerge:
    def test_worker_counters_and_spans_merged(self, small_suite):
        with obs.tracing() as trace:
            run_experiment(
                small_suite[:10], two_cluster_gp(),
                options=EngineOptions(workers=2),
            )
        assert trace.counter("experiment.loops") == 10
        assert trace.counter("assign.placements") > 0
        assert len(trace.find("loop")) == 10
        assert len(trace.find("worker")) >= 1
        # Worker spans hang off the parent experiment span.
        experiment_span = trace.find("experiment")[0]
        hosts = [child for child in experiment_span.children
                 if child.name == "worker"]
        assert hosts

    def test_untraced_run_stays_untraced(self, small_suite):
        result = run_experiment(
            small_suite[:4], two_cluster_gp(),
            options=EngineOptions(workers=2),
        )
        assert obs.current_trace() is None
        assert result.n_loops == 4
