"""Compile-service benchmark: warm pool + front door vs serial.

The serving layer's acceptance benchmark.  Drives the bench suite through the
compile service three ways —

* **serial reference** — direct ``compile_loop`` calls, the floor the
  service must not lose to;
* **warm 1-worker service, no cache** — every request really compiles,
  so the measured gap over serial is pure serving overhead (IPC +
  batching + dispatch).  The old cold ``ProcessPoolExecutor`` path
  lost this comparison at 0.78x; the warm pool must stay within 0.95x
  of serial;
* **cached replay** — the same workload replayed over the sharded
  result cache: hit rate and the p50/p99 reply latencies of a
  fully-warm service.

Replies are asserted bit-identical (ii/mii/copies) to the direct
serial compiles.  The serial and service legs run as interleaved pass
pairs and the gate uses the best paired ratio, so host load lands on
both sides of a ratio instead of masquerading as serving overhead.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_service.py -q``
"""

from __future__ import annotations

import asyncio
import time

from repro import obs
from repro.core.driver import CompilationError, compile_loop
from repro.machine import two_cluster_gp
from repro.service import (
    CompileRequest,
    CompileService,
    ServiceConfig,
    WorkerPool,
    replay,
)
from repro.workloads import paper_suite

from conftest import bench_suite_size, print_report, usable_cores

#: The service must stay within this fraction of serial at 1 worker.
MIN_SPEEDUP_1W = 0.95


#: Timed legs are repeated and the fastest pass is kept: the suite
#: compiles in well under a second, so a single pass on a busy CI host
#: measures scheduler jitter, not serving overhead.
PASSES = 3


def _run_leg(pool, config, requests):
    """Replay ``requests`` through one fresh service; (replies, wall
    seconds)."""

    async def main():
        async with CompileService(config, pool=pool) as service:
            started = time.perf_counter()
            replies = await replay(service, requests)
            return replies, time.perf_counter() - started

    return asyncio.run(main())


def _latency_ms(replies):
    """(p50, p99) of the replies' latencies, in milliseconds."""
    stats = obs.PhaseStats("reply")
    for reply in replies:
        stats.add(reply.latency_s)
    return stats.percentile(50) * 1e3, stats.percentile(99) * 1e3


def _best_leg(pool, config, requests, passes=PASSES):
    """Fastest of ``passes`` runs of :func:`_run_leg`."""
    best = None
    for _ in range(passes):
        run = _run_leg(pool, config, requests)
        if best is None or run[1] < best[1]:
            best = run
    return best


def test_compile_service_vs_serial(tmp_path):
    n_loops = max(100, bench_suite_size())
    loops = paper_suite(n_loops)
    machine = two_cluster_gp()
    cores = usable_cores()
    requests = [CompileRequest(loop=ddg) for ddg in loops]

    # -- warm pool startup (measured, excluded from the legs) ----------
    started = time.perf_counter()
    pool = WorkerPool(workers=1)
    pool.warm_up()
    warm_start_s = time.perf_counter() - started

    # -- serial reference vs warm 1-worker service, no cache -----------
    # The two timed legs alternate, one pair per pass, and the gating
    # ratio is the best *paired* slowdown: pairing puts a load spike on
    # a shared host onto both sides of the same ratio instead of
    # silently skewing whichever leg it hit (the classic paired-
    # measurement design).  Serial passes compile freshly built graphs
    # — reusing one suite would let later passes ride the loops' cached
    # DdgViews, an advantage the service's workers (which receive newly
    # deserialized graphs) never get.
    direct = {}
    serial_s = float("inf")
    nocache_slowdown = float("inf")
    best_service = None
    nocache_config = ServiceConfig(workers=1, batch_size=64)
    for _ in range(PASSES):
        fresh = paper_suite(n_loops)
        started = time.perf_counter()
        for ddg in fresh:
            try:
                compiled = compile_loop(ddg, machine)
            except (CompilationError, ValueError):
                direct[ddg.name] = None
            else:
                direct[ddg.name] = (
                    compiled.ii, compiled.mii, compiled.copy_count
                )
        serial_pass_s = time.perf_counter() - started
        serial_s = min(serial_s, serial_pass_s)
        run = _run_leg(pool, nocache_config, requests)
        if best_service is None or run[1] < best_service[1]:
            best_service = run
        nocache_slowdown = min(
            nocache_slowdown, run[1] / serial_pass_s
        )
    replies, service_nocache_s = best_service
    for reply in replies:
        expected = direct[reply.loop]
        if expected is None:
            assert reply.status == "failed", reply
        else:
            assert reply.status == "ok", reply
            assert (reply.ii, reply.mii, reply.copies) == expected, (
                f"{reply.loop}: service diverged from serial"
            )
    speedup_1w = 1.0 / nocache_slowdown
    p50_ms, p99_ms = _latency_ms(replies)

    # -- leg 2: cached replay ------------------------------------------
    cache_dir = str(tmp_path / "service-cache")
    cache_config = ServiceConfig(workers=1, cache_dir=cache_dir)
    _run_leg(pool, cache_config, requests)  # populate
    cached_replies, cached_s = _best_leg(
        pool, cache_config, requests, passes=2,
    )
    pool.close()
    assert all(reply.cached for reply in cached_replies), (
        "second replay over the same cache dir must be all hits"
    )
    # Requests served without a compile: cache hits and coalesced.
    cache_hit_rate = (
        sum(reply.cached for reply in cached_replies) / len(cached_replies)
    )
    cached_p50_ms, cached_p99_ms = _latency_ms(cached_replies)

    print_report(
        f"Compile service — {n_loops} loops, 1 warm worker "
        f"({cores} cores)",
        f"warm pool start: {warm_start_s:.2f}s",
        f"serial: {serial_s:.2f}s   service (no cache): "
        f"{service_nocache_s:.2f}s   speedup: {speedup_1w:.2f}x",
        f"cached replay: {cached_s:.2f}s   hit rate: "
        f"{cache_hit_rate:.0%}   p50/p99: {p50_ms:.1f}/{p99_ms:.1f} ms "
        f"(cached: {cached_p50_ms:.2f}/{cached_p99_ms:.2f} ms)",
    )
    assert speedup_1w >= MIN_SPEEDUP_1W, (
        f"warm 1-worker service ran at {speedup_1w:.2f}x serial, "
        f"below the {MIN_SPEEDUP_1W:.2f}x floor — the serving layer "
        f"is paying too much overhead per request"
    )
