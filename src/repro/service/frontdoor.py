"""The compile-as-a-service front door: async admission over the pool.

:class:`CompileService` turns the warm fork-server pool into a serving
layer: thousands of concurrent :meth:`~CompileService.submit` coroutines
are admitted through

* **per-tenant quotas** — a tenant with ``tenant_quota`` requests
  already in flight is rejected immediately with
  :class:`QuotaExceededError` (the HTTP-429 analogue), so one noisy
  tenant cannot starve the rest;
* **backpressure** — at most ``max_pending`` requests occupy the
  service at once; excess awaiters queue on the admission semaphore
  instead of ballooning the dispatch queue;
* **the sharded result cache** — a request whose compile fingerprint
  (:func:`repro.workloads.fingerprint.compile_fingerprint` +
  ``CACHE_VERSION``) is cached returns without touching the pool;
* **micro-batching** — admitted misses are drained into chunks of up
  to ``batch_size`` (waiting at most ``batch_window_s`` for stragglers)
  and dispatched as one ``compile_batch`` pool task each, so per-task
  IPC cost amortizes over the batch while idle workers still steal
  whatever chunk is next.

Replies are bit-identical to a direct serial
:func:`repro.core.driver.compile_loop` call — the worker runs exactly
that function — and a crashed worker or blown deadline degrades to a
``failed`` / ``timeout`` reply instead of an exception, mirroring the
experiment runner's fault taxonomy.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..ddg.graph import Ddg
from ..workloads.fingerprint import compile_fingerprint
from .cache import CACHE_VERSION, ShardedResultCache
from .pool import (
    DeadlineExceeded,
    WorkerCrashError,
    WorkerPool,
    shared_pool,
)
from .tasks import resolve_machine, resolve_variant


class QuotaExceededError(RuntimeError):
    """The tenant already has ``tenant_quota`` requests in flight."""


@dataclass(frozen=True)
class CompileRequest:
    """One compile job entering the front door.

    ``machine`` and ``variant`` may be preset/slug names (resolved
    against the warm worker tables — the cheap path) or concrete
    ``Machine`` / ``AssignmentConfig`` objects.
    """

    loop: Ddg
    machine: object = "2gp"
    variant: object = "heuristic-iterative"
    verify: bool = False
    tenant: str = "default"


@dataclass(frozen=True)
class CompileReply:
    """One finished request: outcome + serving facts."""

    loop: str
    status: str  # "ok" | "failed" | "timeout"
    ii: int
    mii: int
    copies: int
    error: str
    cached: bool
    latency_s: float
    pid: int


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of one :class:`CompileService`."""

    workers: int = 1
    #: Requests per dispatched pool chunk (micro-batch ceiling).
    batch_size: int = 16
    #: How long the dispatcher waits for a batch to fill (seconds).
    batch_window_s: float = 0.002
    #: Admission ceiling: requests occupying the service at once.
    max_pending: int = 1024
    #: Max in-flight requests per tenant; 0 = unlimited.
    tenant_quota: int = 0
    #: Sharded result-cache directory; None disables caching.
    cache_dir: Optional[str] = None
    #: Per-batch watchdog deadline (seconds); 0 disables it.
    deadline_s: float = 0.0


@dataclass
class ServiceStats:
    """Lifetime counters + latency reservoir of one service."""

    requests: int = 0
    completed: int = 0
    cache_hits: int = 0
    #: Requests served by awaiting an identical in-flight request
    #: instead of dispatching a duplicate compile.
    coalesced: int = 0
    quota_rejections: int = 0
    batches: int = 0
    worker_crash_failures: int = 0
    deadline_timeouts: int = 0
    latencies_s: List[float] = field(default_factory=list)

    _LATENCY_CAP = 200_000

    def record_latency(self, latency_s: float) -> None:
        if len(self.latencies_s) < self._LATENCY_CAP:
            self.latencies_s.append(latency_s)

    def latency_percentile(self, q: float) -> float:
        """Linear-interpolated latency percentile (q in [0, 100])."""
        samples = sorted(self.latencies_s)
        if not samples:
            return 0.0
        if len(samples) == 1:
            return samples[0]
        rank = (q / 100.0) * (len(samples) - 1)
        low = int(rank)
        high = min(low + 1, len(samples) - 1)
        return samples[low] + (samples[high] - samples[low]) * (rank - low)

    @property
    def cache_hit_rate(self) -> float:
        """Requests served without a compile (cache + coalescing)."""
        if not self.requests:
            return 0.0
        return (self.cache_hits + self.coalesced) / self.requests


class CompileService:
    """Async front door over the warm worker pool.

    Use as an async context manager (or call :meth:`start` /
    :meth:`aclose`)::

        async with CompileService(ServiceConfig(workers=4)) as service:
            reply = await service.submit(CompileRequest(loop=ddg))

    ``pool`` defaults to the process-wide :func:`shared_pool`; pass a
    dedicated :class:`WorkerPool` to isolate (or fault-inject) a
    service instance.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._own_pool = pool is None
        self._pool = pool or shared_pool(self.config.workers)
        self._cache: Optional[ShardedResultCache] = None
        if self.config.cache_dir:
            self._cache = ShardedResultCache(
                self.config.cache_dir, version=CACHE_VERSION
            )
        self.stats = ServiceStats()
        self._inflight_by_tenant: Dict[str, int] = {}
        #: Cache key → future of the request already compiling it.
        self._inflight_keys: Dict[str, "asyncio.Future"] = {}
        self._admission = asyncio.Semaphore(self.config.max_pending)
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._dispatcher: Optional[asyncio.Task] = None
        self._batch_tasks: set = set()
        self._closing = False

    @property
    def cache(self) -> Optional[ShardedResultCache]:
        return self._cache

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    # -- lifecycle ------------------------------------------------------
    async def __aenter__(self) -> "CompileService":
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    def start(self) -> None:
        """Start the dispatcher (idempotent; needs a running loop)."""
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def aclose(self) -> None:
        """Drain in-flight batches and stop the dispatcher.

        The pool itself is left warm when it is the shared pool; a
        dedicated pool passed by the caller stays the caller's to close.
        """
        self._closing = True
        if self._dispatcher is not None:
            await self._queue.put(None)
            await self._dispatcher
            self._dispatcher = None
        if self._batch_tasks:
            await asyncio.gather(
                *list(self._batch_tasks), return_exceptions=True
            )
        self._closing = False

    # -- the request path ----------------------------------------------
    async def submit(self, request: CompileRequest) -> CompileReply:
        """Admit one request; resolves when its reply is ready."""
        started = time.perf_counter()
        quota = self.config.tenant_quota
        tenant = request.tenant
        inflight = self._inflight_by_tenant.get(tenant, 0)
        if quota and inflight >= quota:
            self.stats.quota_rejections += 1
            obs.count("service.quota_rejections")
            raise QuotaExceededError(
                f"tenant {tenant!r} already has {inflight} requests "
                f"in flight (quota {quota})"
            )
        self._inflight_by_tenant[tenant] = inflight + 1
        self.stats.requests += 1
        obs.count("service.requests")
        try:
            async with self._admission:
                reply = await self._serve(request, started)
        finally:
            remaining = self._inflight_by_tenant[tenant] - 1
            if remaining:
                self._inflight_by_tenant[tenant] = remaining
            else:
                del self._inflight_by_tenant[tenant]
        self.stats.completed += 1
        self.stats.record_latency(reply.latency_s)
        return reply

    async def _serve(
        self, request: CompileRequest, started: float,
    ) -> CompileReply:
        key = None
        if self._cache is not None:
            key = self._request_key(request)
            hit = self._cache.get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                obs.count("service.cache_hits")
                return self._reply_from_doc(
                    hit, cached=True,
                    latency_s=time.perf_counter() - started,
                )
            inflight = self._inflight_keys.get(key)
            if inflight is not None:
                # An identical request is already compiling: await its
                # result instead of dispatching a duplicate.
                self.stats.coalesced += 1
                obs.count("service.coalesced")
                doc, _pid = await asyncio.shield(inflight)
                return self._reply_from_doc(
                    doc, cached=True,
                    latency_s=time.perf_counter() - started,
                )
        if self._dispatcher is None or self._dispatcher.done():
            self.start()
        future = asyncio.get_running_loop().create_future()
        if key is not None:
            self._inflight_keys[key] = future
        try:
            await self._queue.put((request, key, future))
            doc, pid = await future
        finally:
            if (key is not None
                    and self._inflight_keys.get(key) is future):
                del self._inflight_keys[key]
        return self._reply_from_doc(
            doc, cached=False,
            latency_s=time.perf_counter() - started, pid=pid,
        )

    def _request_key(self, request: CompileRequest) -> str:
        machine = resolve_machine(request.machine)
        config = resolve_variant(request.variant)
        return compile_fingerprint(
            request.loop, machine, config, verify=request.verify
        )

    @staticmethod
    def _reply_from_doc(
        doc: Dict, cached: bool, latency_s: float, pid: int = 0,
    ) -> CompileReply:
        return CompileReply(
            loop=doc["loop"], status=doc["status"],
            ii=int(doc["ii"]), mii=int(doc["mii"]),
            copies=int(doc["copies"]), error=doc.get("error", ""),
            cached=cached, latency_s=latency_s, pid=pid,
        )

    # -- dispatch -------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                return
            batch = [item]
            if self.config.batch_size > 1:
                deadline = (
                    asyncio.get_running_loop().time()
                    + self.config.batch_window_s
                )
                while len(batch) < self.config.batch_size:
                    try:
                        extra = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        timeout = (
                            deadline
                            - asyncio.get_running_loop().time()
                        )
                        if timeout <= 0:
                            break
                        try:
                            extra = await asyncio.wait_for(
                                self._queue.get(), timeout
                            )
                        except asyncio.TimeoutError:
                            break
                    if extra is None:
                        self._launch_batch(batch)
                        return
                    batch.append(extra)
            self._launch_batch(batch)

    def _launch_batch(self, batch: List[Tuple]) -> None:
        payload = [
            (request.loop, request.machine, request.variant,
             request.verify)
            for request, _, _ in batch
        ]
        self.stats.batches += 1
        obs.count("service.batches")
        pool_future = self._pool.submit(
            "compile_batch", payload,
            deadline=self.config.deadline_s or None,
        )
        task = asyncio.get_running_loop().create_task(
            self._finish_batch(batch, asyncio.wrap_future(pool_future))
        )
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _finish_batch(self, batch: List[Tuple], wrapped) -> None:
        try:
            result = await wrapped
        except DeadlineExceeded as exc:
            self.stats.deadline_timeouts += len(batch)
            obs.count("service.deadline_timeouts")
            self._fail_batch(batch, "timeout", str(exc))
            return
        except WorkerCrashError as exc:
            self.stats.worker_crash_failures += len(batch)
            obs.count("service.worker_crash_failures")
            self._fail_batch(batch, "failed", f"worker crashed: {exc}")
            return
        except Exception as exc:  # RemoteTaskError, pool closed, ...
            self._fail_batch(batch, "failed", str(exc))
            return
        for (request, key, future), doc in zip(batch, result.value):
            if self._cache is not None and key is not None:
                self._cache.put(key, doc)
            if not future.done():
                future.set_result((doc, result.pid))

    def _fail_batch(
        self, batch: List[Tuple], status: str, error: str,
    ) -> None:
        for request, _, future in batch:
            if not future.done():
                future.set_result(({
                    "loop": request.loop.name, "status": status,
                    "ii": 0, "mii": 0, "copies": 0, "error": error,
                }, 0))


async def replay(
    service: CompileService,
    requests,
    concurrency: int = 256,
) -> List[CompileReply]:
    """Drive a request sequence through the service, ``concurrency`` at
    a time, returning replies in request order (the benchmark loop)."""
    semaphore = asyncio.Semaphore(concurrency)

    async def one(request: CompileRequest) -> CompileReply:
        async with semaphore:
            return await service.submit(request)

    return list(await asyncio.gather(
        *(one(request) for request in requests)
    ))
