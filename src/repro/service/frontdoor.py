"""The compile-as-a-service front door: async dispatch over the pool.

:class:`CompileService` turns the warm fork-server pool into a serving
layer.  Each :meth:`~CompileService.submit` coroutine goes through

* **the sharded result cache** — a request whose compile fingerprint
  (:func:`repro.workloads.fingerprint.compile_fingerprint` +
  ``CACHE_VERSION``) is cached returns without touching the pool;
* **coalescing** — a request identical to one already compiling awaits
  that compile instead of dispatching a duplicate;
* **micro-batching** — misses are drained into chunks of up to
  ``batch_size`` (waiting at most :data:`BATCH_WINDOW_S` for
  stragglers) and dispatched as one ``compile_batch`` pool task each,
  so per-task IPC cost amortizes over the batch while idle workers
  still steal whatever chunk is next.

Callers bound their own concurrency: :func:`replay` keeps at most
:data:`REPLAY_CONCURRENCY` requests in flight.

Replies are bit-identical to a direct serial
:func:`repro.core.driver.compile_loop` call — the worker runs exactly
that function — and a crashed worker or blown deadline degrades to a
``failed`` / ``timeout`` reply instead of an exception, mirroring the
experiment runner's fault taxonomy.

Requests, cache hits, coalescing, batches and failures are counted on
the trace only (``service.*`` in ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
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

#: How long the dispatcher waits for a batch to fill (seconds).
BATCH_WINDOW_S = 0.002

#: Requests :func:`replay` keeps in flight at once.
REPLAY_CONCURRENCY = 256


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
    #: Sharded result-cache directory; None disables caching.
    cache_dir: Optional[str] = None
    #: Per-batch watchdog deadline (seconds); 0 disables it.
    deadline_s: float = 0.0


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
        self._pool = pool or shared_pool(self.config.workers)
        self._cache: Optional[ShardedResultCache] = None
        if self.config.cache_dir:
            self._cache = ShardedResultCache(
                self.config.cache_dir, version=CACHE_VERSION
            )
        #: Cache key → future of the request already compiling it.
        self._inflight_keys: Dict[str, "asyncio.Future"] = {}
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._dispatcher: Optional[asyncio.Task] = None
        self._batch_tasks: set = set()

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
        if self._dispatcher is not None:
            await self._queue.put(None)
            await self._dispatcher
            self._dispatcher = None
        if self._batch_tasks:
            await asyncio.gather(
                *list(self._batch_tasks), return_exceptions=True
            )

    # -- the request path ----------------------------------------------
    async def submit(self, request: CompileRequest) -> CompileReply:
        """Serve one request; resolves when its reply is ready."""
        started = time.perf_counter()
        obs.count("service.requests")
        key = None
        if self._cache is not None:
            key = self._request_key(request)
            hit = self._cache.get(key)
            if hit is not None:
                obs.count("service.cache_hits")
                return self._reply_from_doc(
                    hit, cached=True,
                    latency_s=time.perf_counter() - started,
                )
            inflight = self._inflight_keys.get(key)
            if inflight is not None:
                # An identical request is already compiling: await its
                # result instead of dispatching a duplicate.
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
        return compile_fingerprint(request.loop, machine, config)

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
                    asyncio.get_running_loop().time() + BATCH_WINDOW_S
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
            (request.loop, request.machine, request.variant)
            for request, _, _ in batch
        ]
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
            obs.count("service.deadline_timeouts", len(batch))
            self._fail_batch(batch, "timeout", str(exc))
            return
        except WorkerCrashError as exc:
            obs.count("service.worker_crash_failures", len(batch))
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
    service: CompileService, requests,
) -> List[CompileReply]:
    """Drive a request sequence through the service,
    :data:`REPLAY_CONCURRENCY` at a time, returning replies in request
    order (the benchmark loop)."""
    semaphore = asyncio.Semaphore(REPLAY_CONCURRENCY)

    async def one(request: CompileRequest) -> CompileReply:
        async with semaphore:
            return await service.submit(request)

    return list(await asyncio.gather(
        *(one(request) for request in requests)
    ))
