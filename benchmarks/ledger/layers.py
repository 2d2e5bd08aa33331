"""Outside-in per-layer timing for the ledger's traced runs.

Nothing under ``src/`` is instrumented for this: :func:`install` replaces
the public entry points of each ``repro`` module with wrappers, on the
names their callers look up at call time (``driver.assign_clusters``,
the helpers imported into ``core.assignment``, the public methods of
``RoutingState`` / ``ResourcePools``, ...).  Each wrapper keeps a
stack-based self-time account on the calling thread's CPU clock: a
call's CPU time is charged to its layer minus the time of wrapped calls
nested inside it, so the self times of all layers add up to the CPU
time the outermost calls cover.  A wrapper's own bookkeeping cost lands
in its caller's self time.

The wrappers are installed once and never removed, so only a process
that exists to be traced may call :func:`install`.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

#: Layers in pipeline order (report order).
LAYERS = (
    "core.driver",
    "ddg.mii",
    "core.ordering",
    "core.selection",
    "core.prediction",
    "core.annotate",
    "core.assignment",
    "core.copies",
    "mrt.pool",
    "scheduling.modulo",
    "lint",
    "certify",
    "workloads.fingerprint",
    "service.pool",
    "service.cache",
)


class LayerAccount:
    """CPU self time and call counts per layer, plus pool round trips.

    Wrapped calls must all happen on one thread (they do: the compile
    loop and the service's event loop run on the main thread).  The
    pool done-callback runs on whichever thread completes the future
    and touches only the ``pool_*`` totals, under a lock.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        # One [child seconds] cell per open wrapped call.
        self._stack: List[List[float]] = []
        self.pool_roundtrip_s = 0.0
        self.pool_queue_wait_s = 0.0
        self.pool_execute_s = 0.0

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with its calls charged to ``layer``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.thread_time

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self_s[layer] += elapsed - cell[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        return timed


def _wrap_attr(account: LayerAccount, owner, name: str, layer: str) -> None:
    setattr(owner, name, account.wrap(layer, getattr(owner, name)))


def _wrap_public_methods(account: LayerAccount, cls, layer: str) -> None:
    for name, member in list(vars(cls).items()):
        if not name.startswith("_") and inspect.isfunction(member):
            setattr(cls, name, account.wrap(layer, member))


def _wrap_pool_submit(account: LayerAccount, pool_cls) -> None:
    """``WorkerPool.submit`` as layer ``service.pool``, with a
    done-callback splitting each task's wall-clock round trip into
    queue wait, worker execution and the rest (pickling, pipes,
    collector hops)."""
    submit = account.wrap("service.pool", pool_cls.submit)
    lock = threading.Lock()

    def submit_and_follow(self, fn_name, payload, deadline=None):
        sent = time.perf_counter()
        future = submit(self, fn_name, payload, deadline=deadline)

        def done(finished) -> None:
            roundtrip = time.perf_counter() - sent
            if finished.cancelled() or finished.exception() is not None:
                return
            result = finished.result()
            with lock:
                account.pool_roundtrip_s += roundtrip
                account.pool_queue_wait_s += result.queue_wait_s
                account.pool_execute_s += result.execute_s

        future.add_done_callback(done)
        return future

    pool_cls.submit = submit_and_follow


def install(account: LayerAccount) -> None:
    """Wrap every layer's entry points (irreversible, see module doc)."""
    from repro.certify import gate
    from repro.core import assignment, copies, driver
    from repro.lint import engine as lint_engine
    from repro.mrt import pool as mrt_pool
    from repro.scheduling import modulo
    from repro.service import cache, frontdoor
    from repro.service import pool as service_pool

    for owner, name, layer in (
        (driver, "compile_loop", "core.driver"),
        (driver, "mii", "ddg.mii"),
        (modulo, "rec_mii_exceeds", "ddg.mii"),
        (assignment, "build_assignment_order", "core.ordering"),
        (assignment, "select_best_cluster", "core.selection"),
        (assignment, "select_failure_cluster", "core.selection"),
        (assignment, "prediction_satisfied", "core.prediction"),
        (assignment, "build_annotated", "core.annotate"),
        (driver, "assign_clusters", "core.assignment"),
        (driver, "modulo_schedule", "scheduling.modulo"),
        # The driver imports both gates lazily, from these modules.
        (lint_engine, "lint_compiled", "lint"),
        (gate, "certify_compiled", "certify"),
        (frontdoor, "compile_fingerprint", "workloads.fingerprint"),
        (cache.ShardedResultCache, "get", "service.cache"),
        (cache.ShardedResultCache, "put", "service.cache"),
    ):
        _wrap_attr(account, owner, name, layer)
    _wrap_public_methods(account, copies.RoutingState, "core.copies")
    _wrap_public_methods(account, mrt_pool.ResourcePools, "mrt.pool")
    _wrap_pool_submit(account, service_pool.WorkerPool)
