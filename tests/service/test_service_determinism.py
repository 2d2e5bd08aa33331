"""Pool outcomes bit-identical to the frozen reference.

The experiment runner dispatched over the warm worker pool must produce
exactly the outcome list built from :mod:`repro.baselines` — across
worker counts, chunkings, and even with a worker crash injected
mid-sweep (the retry path re-runs the lost chunk, so faults shift
timing, never results).
"""

from __future__ import annotations

import pytest

import repro.service.pool as pool_module
from repro.analysis.experiment import EngineOptions, run_experiment
from repro.machine.presets import two_cluster_gp
from repro.service import WorkerPool
from repro.workloads import paper_suite


@pytest.fixture(scope="module")
def corpus():
    return paper_suite()[:16]


@pytest.fixture(scope="module")
def machine():
    return two_cluster_gp()


@pytest.fixture(scope="module")
def expected_outcomes(corpus, machine, reference_outcomes):
    return reference_outcomes(corpus, machine)


class TestPoolDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_outcomes_equal_serial(
        self, corpus, machine, expected_outcomes, workers,
    ):
        pool = WorkerPool(workers=min(workers, 2))
        try:
            result = run_experiment(
                corpus, machine,
                options=EngineOptions(workers=workers, pool=pool),
            )
            assert result.outcomes == expected_outcomes
        finally:
            pool.close()

    def test_chunk_size_does_not_change_outcomes(
        self, corpus, machine, expected_outcomes,
    ):
        pool = WorkerPool(workers=2)
        try:
            for chunk_size in (1, 3, 16):
                result = run_experiment(
                    corpus, machine,
                    options=EngineOptions(
                        workers=2, chunk_size=chunk_size, pool=pool,
                    ),
                )
                assert result.outcomes == expected_outcomes
        finally:
            pool.close()

    def test_outcomes_survive_injected_worker_crash(
        self, corpus, machine, expected_outcomes, tmp_path,
    ):
        # One worker dies hard mid-sweep; the pool retries the lost
        # chunk on the replacement, so results stay bit-identical.
        marker = str(tmp_path / "crash-once")
        pool = WorkerPool(workers=2, crash_once=marker)
        try:
            result = run_experiment(
                corpus, machine,
                options=EngineOptions(workers=2, pool=pool),
            )
            assert pool.stats.crashes >= 1
            assert pool.stats.retries >= 1
            assert result.outcomes == expected_outcomes
        finally:
            pool.close()

    def test_crash_past_retry_budget_degrades_to_failed(
        self, corpus, machine, tmp_path, monkeypatch,
    ):
        marker = str(tmp_path / "crash-once")
        monkeypatch.setattr(pool_module, "MAX_TASK_RETRIES", 0)
        pool = WorkerPool(workers=1, crash_once=marker)
        try:
            result = run_experiment(
                corpus, machine,
                options=EngineOptions(
                    workers=2, chunk_size=len(corpus), pool=pool,
                ),
            )
            assert len(result.outcomes) == len(corpus)
            assert all(
                outcome.status == "failed"
                and "worker crashed" in outcome.error
                for outcome in result.outcomes
            )
        finally:
            pool.close()
