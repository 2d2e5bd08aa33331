"""The async front door: admission, quotas, caching, batching, faults."""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import Future

import pytest

import repro.service.pool as pool_module
from repro.core.driver import compile_loop
from repro.machine.presets import two_cluster_gp
from repro.service import (
    CompileRequest,
    CompileService,
    DeadlineExceeded,
    QuotaExceededError,
    ServiceConfig,
    ServiceStats,
    ShardedResultCache,
    WorkerPool,
    replay,
)
from repro.workloads import paper_suite


@pytest.fixture(scope="module")
def loops():
    return paper_suite()[:6]


#: Any event-loop step slower than this fails the test: the front door
#: must never block its loop (a sync sleep, a pool wait, a slow read).
SLOW_CALLBACK_S = 0.25


class _SlowSteps(logging.Handler):
    """Collects asyncio debug mode's "Executing ... took ..." warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        message = record.getMessage()
        if message.startswith("Executing") and " took " in message:
            self.messages.append(message)


def run(coroutine):
    """``asyncio.run`` in debug mode, failing on any slow loop step."""
    async def guarded():
        loop = asyncio.get_running_loop()
        loop.slow_callback_duration = SLOW_CALLBACK_S
        return await coroutine

    slow = _SlowSteps()
    logger = logging.getLogger("asyncio")
    logger.addHandler(slow)
    try:
        result = asyncio.run(guarded(), debug=True)
    finally:
        logger.removeHandler(slow)
    assert not slow.messages, (
        "blocked the event loop: " + "; ".join(slow.messages)
    )
    return result


class TestServing:
    def test_reply_matches_direct_compile(self, warm_pool, loops):
        ddg = loops[0]

        async def main():
            async with CompileService(pool=warm_pool) as service:
                return await service.submit(CompileRequest(loop=ddg))

        reply = run(main())
        direct = compile_loop(ddg, two_cluster_gp())
        assert reply.status == "ok"
        assert reply.loop == ddg.name
        assert reply.ii == direct.ii
        assert reply.mii == direct.mii
        assert reply.copies == direct.copy_count
        assert reply.cached is False
        assert reply.latency_s > 0
        assert reply.pid != 0

    def test_batched_concurrent_requests_all_answer(
        self, warm_pool, loops,
    ):
        async def main():
            config = ServiceConfig(batch_size=4)
            async with CompileService(config, pool=warm_pool) as svc:
                requests = [
                    CompileRequest(loop=ddg)
                    for _ in range(3) for ddg in loops
                ]
                replies = await replay(svc, requests)
                return replies, svc.stats

        replies, stats = run(main())
        assert len(replies) == 3 * len(loops)
        assert all(reply.status == "ok" for reply in replies)
        assert stats.batches >= 1
        assert stats.completed == len(replies)

    def test_replies_keep_request_order(self, warm_pool, loops):
        async def main():
            async with CompileService(pool=warm_pool) as svc:
                return await replay(
                    svc, [CompileRequest(loop=ddg) for ddg in loops]
                )

        replies = run(main())
        assert [r.loop for r in replies] == [ddg.name for ddg in loops]


class TestCacheAndCoalescing:
    def test_second_submit_hits_disk_cache(
        self, warm_pool, loops, tmp_path,
    ):
        ddg = loops[0]
        config = ServiceConfig(cache_dir=str(tmp_path))

        async def main():
            async with CompileService(config, pool=warm_pool) as svc:
                first = await svc.submit(CompileRequest(loop=ddg))
                second = await svc.submit(CompileRequest(loop=ddg))
                return first, second, svc.stats

        first, second, stats = run(main())
        assert first.cached is False
        assert second.cached is True
        assert (first.ii, first.mii, first.copies) == \
            (second.ii, second.mii, second.copies)
        assert stats.cache_hits == 1

    def test_cache_survives_service_restart(
        self, warm_pool, loops, tmp_path,
    ):
        ddg = loops[1]
        config = ServiceConfig(cache_dir=str(tmp_path))

        async def main():
            async with CompileService(config, pool=warm_pool) as svc:
                await svc.submit(CompileRequest(loop=ddg))
            async with CompileService(config, pool=warm_pool) as svc:
                reply = await svc.submit(CompileRequest(loop=ddg))
                return reply

        assert run(main()).cached is True

    def test_concurrent_duplicates_coalesce(
        self, warm_pool, loops, tmp_path,
    ):
        ddg = loops[2]
        config = ServiceConfig(cache_dir=str(tmp_path))

        async def main():
            async with CompileService(config, pool=warm_pool) as svc:
                replies = await asyncio.gather(*(
                    svc.submit(CompileRequest(loop=ddg))
                    for _ in range(8)
                ))
                return replies, svc.stats

        replies, stats = run(main())
        assert all(reply.status == "ok" for reply in replies)
        # Exactly one compile dispatched; the rest were coalesced.
        assert stats.coalesced == 7
        assert stats.cache_hit_rate == pytest.approx(7 / 8)


class TestEventLoopGuard:
    def test_blocking_cache_read_trips_the_guard(
        self, warm_pool, loops, tmp_path, monkeypatch,
    ):
        # _serve calls the cache synchronously on the loop; a slow read
        # there stalls every other request and must fail the test.
        real_get = ShardedResultCache.get

        def slow_get(self, key):
            time.sleep(0.4)
            return real_get(self, key)

        monkeypatch.setattr(ShardedResultCache, "get", slow_get)
        config = ServiceConfig(cache_dir=str(tmp_path))

        async def main():
            async with CompileService(config, pool=warm_pool) as svc:
                return await svc.submit(CompileRequest(loop=loops[0]))

        with pytest.raises(AssertionError, match="blocked the event loop"):
            run(main())


class TestAdmission:
    def test_tenant_quota_rejects_excess(self, warm_pool, loops):
        config = ServiceConfig(tenant_quota=2)

        async def main():
            async with CompileService(config, pool=warm_pool) as svc:
                results = await asyncio.gather(*(
                    svc.submit(CompileRequest(
                        loop=loops[i % len(loops)], tenant="noisy",
                    ))
                    for i in range(10)
                ), return_exceptions=True)
                return results, svc.stats

        results, stats = run(main())
        rejected = [
            r for r in results if isinstance(r, QuotaExceededError)
        ]
        served = [r for r in results if not isinstance(r, Exception)]
        assert rejected, "quota never kicked in"
        assert all(r.status == "ok" for r in served)
        assert stats.quota_rejections == len(rejected)

    def test_quotas_are_per_tenant(self, warm_pool, loops):
        config = ServiceConfig(tenant_quota=1)

        async def main():
            async with CompileService(config, pool=warm_pool) as svc:
                return await asyncio.gather(*(
                    svc.submit(CompileRequest(
                        loop=loops[i], tenant=f"tenant-{i}",
                    ))
                    for i in range(4)
                ))

        assert all(r.status == "ok" for r in run(main()))

    def test_backpressure_still_serves_everyone(self, warm_pool, loops):
        # max_pending far below the request count: excess awaiters
        # queue on the admission semaphore and still complete.
        config = ServiceConfig(max_pending=2, batch_size=2)

        async def main():
            async with CompileService(config, pool=warm_pool) as svc:
                return await replay(
                    svc,
                    [CompileRequest(loop=ddg)
                     for _ in range(3) for ddg in loops],
                )

        replies = run(main())
        assert len(replies) == 3 * len(loops)
        assert all(reply.status == "ok" for reply in replies)


class TestFaults:
    def test_worker_crash_past_retries_degrades_to_failed(
        self, loops, tmp_path, monkeypatch,
    ):
        marker = str(tmp_path / "crash-once")
        monkeypatch.setattr(pool_module, "MAX_TASK_RETRIES", 0)
        pool = WorkerPool(workers=1, crash_once=marker)
        try:
            async def main():
                config = ServiceConfig(batch_size=len(loops))
                async with CompileService(config, pool=pool) as svc:
                    return await replay(
                        svc, [CompileRequest(loop=d) for d in loops],
                    ), svc.stats

            replies, stats = run(main())
            failed = [r for r in replies if r.status == "failed"]
            assert failed, "the crashed batch never surfaced"
            assert all(
                "worker crashed" in r.error for r in failed
            )
            assert stats.worker_crash_failures == len(failed)
        finally:
            pool.close()

    def test_deadline_degrades_to_timeout_reply(self, loops):
        # The pool-level kill itself is covered in test_pool; here the
        # fake pool fails the batch deterministically so the reply
        # mapping (DeadlineExceeded -> "timeout") is exercised without
        # racing the collector's poll interval.
        class _DeadlinePool:
            def submit(self, fn_name, payload, deadline=None):
                future: Future = Future()
                future.set_exception(
                    DeadlineExceeded("task exceeded its 0.2s deadline")
                )
                return future

        async def main():
            config = ServiceConfig(deadline_s=0.2)
            service = CompileService(config, pool=_DeadlinePool())
            async with service:
                reply = await service.submit(
                    CompileRequest(loop=loops[0])
                )
                return reply, service.stats

        reply, stats = run(main())
        assert reply.status == "timeout"
        assert "deadline" in reply.error
        assert stats.deadline_timeouts == 1


class TestStats:
    def test_latency_percentiles(self):
        stats = ServiceStats()
        for value in (1.0, 2.0, 3.0, 4.0):
            stats.record_latency(value)
        assert stats.latency_percentile(0) == 1.0
        assert stats.latency_percentile(100) == 4.0
        assert stats.latency_percentile(50) == pytest.approx(2.5)

    def test_percentiles_of_empty_and_single(self):
        stats = ServiceStats()
        assert stats.latency_percentile(99) == 0.0
        stats.record_latency(0.5)
        assert stats.latency_percentile(99) == 0.5

    def test_hit_rate_counts_cache_and_coalesced(self):
        stats = ServiceStats()
        assert stats.cache_hit_rate == 0.0
        stats.requests = 10
        stats.cache_hits = 3
        stats.coalesced = 2
        assert stats.cache_hit_rate == pytest.approx(0.5)
