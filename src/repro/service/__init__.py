"""Compile-as-a-service: warm fork-server pool + async front door.

The serving layer the ROADMAP's north star asks for, and the repair for
the parallel-engine slowdown (cold per-run process fan-out used to lose
to serial on the corpus' millisecond-scale compile tasks):

* :mod:`repro.service.pool` — the persistent work-stealing
  :class:`WorkerPool` (fork-server start, warm presets, crash recovery,
  deadline recycle) shared by the experiment runner, ``repro certify
  --workers``, and the front door;
* :mod:`repro.service.tasks` — the worker-side task registry and
  prewarm;
* :mod:`repro.service.cache` — the sharded content-addressed result
  cache keyed by compile fingerprints, versioned by its
  ``CACHE_VERSION``;
* :mod:`repro.service.frontdoor` — :class:`CompileService`, the
  ``asyncio`` front door with result caching, duplicate coalescing and
  micro-batched dispatch.

See ``docs/SERVICE.md`` for the architecture,
``benchmarks/test_service.py`` for the serving-overhead gate, and the
ledger's ``service-2gp`` workload (``benchmarks/ledger``) for service
throughput and latency.
"""

from .cache import ShardedResultCache
from .frontdoor import (
    CompileReply,
    CompileRequest,
    CompileService,
    ServiceConfig,
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
    "RemoteTaskError",
    "ServiceConfig",
    "ShardedResultCache",
    "TaskResult",
    "WorkerCrashError",
    "WorkerPool",
    "map_tasks",
    "replay",
    "shared_pool",
    "shutdown_shared_pool",
]
