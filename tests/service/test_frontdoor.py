"""The async front door: caching, coalescing, batching, faults."""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import Future

import pytest

import repro.service.pool as pool_module
from repro.core.driver import compile_loop
from repro.machine.presets import two_cluster_gp
from repro.obs import tracing
from repro.service import (
    CompileRequest,
    CompileService,
    DeadlineExceeded,
    ServiceConfig,
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
                return await replay(svc, requests)

        with tracing() as trace:
            replies = run(main())
        assert len(replies) == 3 * len(loops)
        assert all(reply.status == "ok" for reply in replies)
        assert trace.counter("service.batches") >= 1
        assert trace.counter("service.requests") == len(replies)

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
                return first, second

        with tracing() as trace:
            first, second = run(main())
        assert first.cached is False
        assert second.cached is True
        assert (first.ii, first.mii, first.copies) == \
            (second.ii, second.mii, second.copies)
        assert trace.counter("service.cache_hits") == 1

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
                return await asyncio.gather(*(
                    svc.submit(CompileRequest(loop=ddg))
                    for _ in range(8)
                ))

        with tracing() as trace:
            replies = run(main())
        assert all(reply.status == "ok" for reply in replies)
        # Exactly one compile dispatched; the rest were coalesced.
        assert trace.counter("service.coalesced") == 7
        assert sum(reply.cached for reply in replies) == 7


class TestEventLoopGuard:
    def test_blocking_cache_read_trips_the_guard(
        self, warm_pool, loops, tmp_path, monkeypatch,
    ):
        # submit calls the cache synchronously on the loop; a slow read
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
    def test_backpressure_still_serves_everyone(self, warm_pool, loops):
        # Many more requests than one batch holds: the excess waits in
        # the dispatch queue and still completes.
        config = ServiceConfig(batch_size=2)

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
                    )

            with tracing() as trace:
                replies = run(main())
            failed = [r for r in replies if r.status == "failed"]
            assert failed, "the crashed batch never surfaced"
            assert all(
                "worker crashed" in r.error for r in failed
            )
            # Counted per request, however the batches were cut.
            assert trace.counter("service.worker_crash_failures") == \
                len(failed)
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
                return await service.submit(
                    CompileRequest(loop=loops[0])
                )

        with tracing() as trace:
            reply = run(main())
        assert reply.status == "timeout"
        assert "deadline" in reply.error
        assert trace.counter("service.deadline_timeouts") == 1


class TestStats:
    def test_hit_rate_counts_cache_and_coalesced(
        self, warm_pool, loops, tmp_path,
    ):
        # One request hits the disk cache, two await an identical
        # compile in flight, and four are compiled: the counters the
        # ledger reads agree with the replies' cached flags.
        config = ServiceConfig(cache_dir=str(tmp_path), batch_size=2)
        requests = [CompileRequest(loop=ddg) for ddg in (
            loops[0], loops[1], loops[1], loops[1],
            loops[2], loops[3], loops[4],
        )]

        async def main():
            async with CompileService(config, pool=warm_pool) as svc:
                await svc.submit(CompileRequest(loop=loops[0]))
            async with CompileService(config, pool=warm_pool) as svc:
                with tracing() as trace:
                    replies = await replay(svc, requests)
                return replies, trace

        replies, trace = run(main())
        assert all(reply.status == "ok" for reply in replies)
        compiled = [reply for reply in replies if not reply.cached]
        assert trace.counter("service.requests") == len(replies) == 7
        assert trace.counter("service.cache_hits") == 1
        assert trace.counter("service.coalesced") == 2
        assert trace.counter("service.cache_hits") + \
            trace.counter("service.coalesced") == \
            len(replies) - len(compiled)
        # Each dispatched batch holds one to batch_size compiles.
        batches = trace.counter("service.batches")
        assert len(compiled) / config.batch_size <= batches <= \
            len(compiled)
