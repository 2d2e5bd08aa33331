"""Compile-as-a-service: warm fork-server pool + async front door.

The serving layer the ROADMAP's north star asks for, and the repair for
the parallel-engine slowdown (cold per-run process fan-out used to lose
to serial on the corpus' millisecond-scale compile tasks):

* :mod:`repro.service.pool` — the persistent work-stealing
  :class:`WorkerPool` (fork-server start, warm presets, crash recovery,
  deadline recycle) shared by the experiment runner, ``repro lint`` /
  ``repro certify`` ``--workers``, and the front door;
* :mod:`repro.service.tasks` — the worker-side task registry and
  prewarm;
* :mod:`repro.service.cache` — the sharded content-addressed result
  cache keyed by compile fingerprints, versioned by its
  ``CACHE_VERSION``;
* :mod:`repro.service.frontdoor` — :class:`CompileService`, the
  ``asyncio`` admission layer with backpressure, per-tenant quotas,
  and micro-batched dispatch.

See ``docs/SERVICE.md`` for the architecture and
``benchmarks/test_service.py`` (→ ``BENCH_service.json``) for the
replay benchmark.
"""

from .cache import ShardedResultCache
from .frontdoor import (
    CompileReply,
    CompileRequest,
    CompileService,
    QuotaExceededError,
    ServiceConfig,
    ServiceStats,
    replay,
)
from .pool import (
    DeadlineExceeded,
    PoolClosedError,
    PoolError,
    RemoteTaskError,
    TaskResult,
    WorkerCrashError,
    WorkerPool,
    shared_pool,
    shutdown_shared_pool,
)


def map_tasks(fn_name: str, payloads, workers: int = 1):
    """Run registered tasks over the shared warm pool, yielding values
    in submission order (the ``--workers`` CLI dispatch helper)."""
    pool = shared_pool(workers)
    yield from pool.map(fn_name, payloads)


__all__ = [
    "CompileReply",
    "CompileRequest",
    "CompileService",
    "DeadlineExceeded",
    "PoolClosedError",
    "PoolError",
    "QuotaExceededError",
    "RemoteTaskError",
    "ServiceConfig",
    "ServiceStats",
    "ShardedResultCache",
    "TaskResult",
    "WorkerCrashError",
    "WorkerPool",
    "map_tasks",
    "replay",
    "shared_pool",
    "shutdown_shared_pool",
]
