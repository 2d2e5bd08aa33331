"""Persistent fork-server worker pool with work-stealing dispatch.

The one process-fan-out implementation in the repository: the
experiment runner (:mod:`repro.analysis.experiment`), the ``repro lint``
/ ``repro certify`` ``--workers`` paths, and the compile service's async
front door all dispatch through a :class:`WorkerPool`.

Why not ``ProcessPoolExecutor``?  The corpus' per-loop compiles are a
few milliseconds each, so cold per-run pool startup and per-call
pickling dominated — the old fan-out *lost* to serial (0.78x on the
1-core container, BENCH_parallel_engine.json).  This pool fixes the
cost model:

* **fork-server start** — workers are created from a ``forkserver``
  (falling back to ``fork`` / ``spawn``) context; with
  :mod:`repro.service.tasks` imported before the first fork, every
  worker is born with the whole compile pipeline already imported and
  :func:`~repro.service.tasks.prewarm`-ed machine presets;
* **persistence** — the module-level :func:`shared_pool` keeps one pool
  warm across requests/runs for the life of the process, so only the
  first dispatch ever pays startup;
* **work stealing** — all workers pull from one shared task queue, so
  an idle worker steals the next chunk regardless of who was "assigned"
  what; callers keep deterministic results by merging futures in
  submission order;
* **fault tolerance** — a worker that dies mid-task is detected by the
  collector thread, its in-flight task is retried on a live worker (up
  to :data:`MAX_TASK_RETRIES` times), and a replacement worker is
  spawned; a task that exceeds its ``deadline`` gets its worker killed
  and recycled and its future fails with :class:`DeadlineExceeded` —
  the repository's one timeout mechanism, which also stops code stuck
  in C (the experiment runner's per-loop budget is this deadline);
* **graceful drain** — ``close()`` finishes outstanding work, stops
  workers with sentinels, and joins them.

Task results resolve to :class:`TaskResult`, which carries the worker
pid and the queue-wait/execute split so callers can attribute per-lane
timelines (see ``docs/EXPERIMENT_ENGINE.md``).
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import multiprocessing.queues
import os
import threading
import time
import traceback
import weakref
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import tasks as task_registry

#: How often the collector checks deadlines and worker liveness
#: (seconds), whether or not results are arriving.
_POLL_INTERVAL = 0.05

#: Times a task lost to a worker crash is retried before its future
#: fails with :class:`WorkerCrashError`.
MAX_TASK_RETRIES = 2

_MSG_TASK = "task"
_MSG_STOP = "stop"


class PoolError(RuntimeError):
    """Base class for pool-side failures."""


class PoolClosedError(PoolError):
    """Submit after close, or close(drain=False) abandoned the task."""


class WorkerCrashError(PoolError):
    """The task's worker died and the retry budget is exhausted."""


class DeadlineExceeded(PoolError):
    """The task outlived its deadline; its worker was recycled."""


class RemoteTaskError(PoolError):
    """The task function raised inside the worker.

    ``remote_traceback`` carries the worker-side traceback text.
    """

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


@dataclass(frozen=True)
class TaskResult:
    """One completed task: its value plus worker attribution facts."""

    value: object
    pid: int
    #: Seconds the task sat in the shared queue before a worker took it.
    queue_wait_s: float
    #: Seconds the worker spent executing the task function.
    execute_s: float


@dataclass
class PoolStats:
    """Lifetime counters of one pool (monotonic, never reset)."""

    submitted: int = 0
    completed: int = 0
    task_errors: int = 0
    retries: int = 0
    crashes: int = 0
    deadline_kills: int = 0
    workers_recycled: int = 0


class _Pending:
    """Parent-side record of one in-flight task."""

    __slots__ = ("task_id", "fn_name", "payload", "future", "deadline",
                 "retries_left", "submitted_wall", "started_wall", "pid")

    def __init__(self, task_id, fn_name, payload, future, deadline,
                 retries_left) -> None:
        self.task_id = task_id
        self.fn_name = fn_name
        self.payload = payload
        self.future = future
        self.deadline = deadline
        self.retries_left = retries_left
        self.submitted_wall = time.time()
        self.started_wall: Optional[float] = None
        self.pid: Optional[int] = None


class _TaskQueue(multiprocessing.queues.Queue):
    """The shared task queue.

    ``Queue.put`` pickles on a feeder thread, which by default prints
    and drops a message it cannot pickle: that task's future would
    never resolve.  Here the failure goes to ``on_unsendable(message,
    error)`` instead.  The queue holds that method weakly: a feeder
    thread still flushing after ``close`` must not keep the pool, and
    the semaphores of its queues, alive.
    """

    def __init__(self, ctx, on_unsendable) -> None:
        super().__init__(ctx=ctx)
        self._on_unsendable = weakref.WeakMethod(on_unsendable)

    def _on_queue_feeder_error(self, e, obj):
        on_unsendable = self._on_unsendable()
        if on_unsendable is not None:
            on_unsendable(obj, e)


def _worker_main(task_queue, result_queue, crash_once_path) -> None:
    """Worker loop: steal tasks from the shared queue until a sentinel.

    ``crash_once_path`` is a fault-injection hook for the crash-recovery
    tests: the first worker to pick up a task while the file does not
    exist creates it and dies hard (``os._exit``), exactly like a
    segfaulting compile would.
    """
    task_registry.prewarm()
    # The prewarmed module/preset graph is permanent: freeze it out of
    # the collector's young generations so per-request allocation bursts
    # (payload unpickling, schedule tables) don't pay to re-scan it.
    gc.collect()
    gc.freeze()
    pid = os.getpid()
    while True:
        message = task_queue.get()
        if message[0] == _MSG_STOP:
            break
        _, task_id, fn_name, payload, submitted_wall = message
        started_wall = time.time()
        result_queue.put(("started", task_id, pid, started_wall))
        if crash_once_path and not os.path.exists(crash_once_path):
            with open(crash_once_path, "w") as handle:
                handle.write(str(pid))
            os._exit(13)
        try:
            fn = task_registry.resolve(fn_name)
            execute_started = time.perf_counter()
            value = fn(payload)
            execute_s = time.perf_counter() - execute_started
        except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
            result_queue.put((
                "error", task_id, pid,
                f"{type(exc).__name__}: {exc}", traceback.format_exc(),
            ))
        else:
            meta = (max(0.0, started_wall - submitted_wall), execute_s)
            try:
                result_queue.put(("done", task_id, pid, value, meta))
            except Exception as exc:  # unpicklable result
                result_queue.put((
                    "error", task_id, pid,
                    f"unpicklable task result: {exc}",
                    traceback.format_exc(),
                ))


def _pick_context() -> multiprocessing.context.BaseContext:
    """The best available start method: forkserver > fork > spawn.

    ``REPRO_SERVICE_START_METHOD`` overrides the choice.  The
    fork-server keeps worker creation cheap *and* safe to call from a
    process that already runs threads (the collector); plain ``fork``
    is the fallback on platforms without it.
    """
    preferred = os.environ.get("REPRO_SERVICE_START_METHOD")
    methods = multiprocessing.get_all_start_methods()
    order = [preferred] if preferred else ["forkserver", "fork", "spawn"]
    for method in order:
        if method in methods:
            context = multiprocessing.get_context(method)
            if method == "forkserver":
                try:
                    context.set_forkserver_preload(
                        ["repro.service.tasks"]
                    )
                except Exception:  # pragma: no cover - best effort
                    pass
            return context
    return multiprocessing.get_context()  # pragma: no cover


class WorkerPool:
    """A persistent pool of warm worker processes.

    ``workers`` processes are started eagerly; :meth:`submit` enqueues a
    registered task (see :mod:`repro.service.tasks`) and returns a
    :class:`concurrent.futures.Future` resolving to a
    :class:`TaskResult`.  All submission is thread-safe.

    A task lost to a worker crash is retried up to
    :data:`MAX_TASK_RETRIES` times; ``submit(deadline=S)`` kills and
    recycles the worker of a task still running after ``S`` seconds.
    ``crash_once`` is the fault-injection hook documented on
    :func:`_worker_main`.
    """

    def __init__(
        self,
        workers: int = 1,
        crash_once: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a pool needs at least 1 worker")
        self._context = _pick_context()
        self._task_queue = _TaskQueue(self._context, self._fail_unsendable)
        # SimpleQueue writes synchronously (no feeder thread), so a
        # worker that hard-exits right after reporting "started" cannot
        # lose the message in an unflushed buffer — the crash detector
        # depends on that ordering to know which task to retry.
        self._result_queue = self._context.SimpleQueue()
        self._crash_once = crash_once
        self._lock = threading.Lock()
        self._pending: Dict[int, _Pending] = {}
        self._workers: List = []
        self._next_task_id = 0
        self._closed = False
        self.stats = PoolStats()
        for _ in range(workers):
            self._spawn_worker()
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-pool-collector",
            daemon=True,
        )
        self._collector.start()

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def n_workers(self) -> int:
        """Live worker count."""
        with self._lock:
            return sum(
                1 for process in self._workers if process.is_alive()
            )

    def _spawn_worker(self) -> None:
        process = self._context.Process(
            target=_worker_main,
            args=(self._task_queue, self._result_queue,
                  self._crash_once),
            daemon=True,
        )
        process.start()
        self._workers.append(process)

    def ensure_workers(self, workers: int) -> None:
        """Grow the pool so at least ``workers`` processes are alive."""
        if self._closed:
            raise PoolClosedError("pool is closed")
        with self._lock:
            alive = sum(
                1 for process in self._workers if process.is_alive()
            )
            for _ in range(max(0, workers - alive)):
                self._spawn_worker()

    def warm_up(self, timeout: float = 30.0) -> None:
        """Block until every worker has served one ``ping`` (presets
        built, pipeline imported) — useful before benchmarking."""
        count = self.n_workers
        futures = [self.submit("ping", index) for index in range(count)]
        for future in futures:
            future.result(timeout=timeout)

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.

        ``drain=True`` waits for outstanding tasks first; otherwise
        outstanding futures fail with :class:`PoolClosedError` and the
        workers are terminated.
        """
        if self._closed:
            return
        self._closed = True
        if drain:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._pending:
                        break
                time.sleep(_POLL_INTERVAL / 5)
        with self._lock:
            for pending in list(self._pending.values()):
                if not pending.future.done():
                    pending.future.set_exception(
                        PoolClosedError("pool closed before completion")
                    )
            self._pending.clear()
            workers = list(self._workers)
        for _ in workers:
            try:
                self._task_queue.put((_MSG_STOP,))
            except Exception:  # pragma: no cover - queue torn down
                break
        for process in workers:
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._collector.join(timeout=2.0)
        self._task_queue.close()
        self._result_queue.close()

    # -- submission -----------------------------------------------------
    def submit(
        self, fn_name: str, payload,
        deadline: Optional[float] = None,
    ) -> Future:
        """Enqueue one task; the Future resolves to a TaskResult.

        ``deadline`` (seconds, None or 0 for none) bounds the task's run
        time once a worker has started it.
        """
        if self._closed:
            raise PoolClosedError("pool is closed")
        if fn_name not in task_registry.TASKS:
            raise KeyError(f"unknown task {fn_name!r}")
        future: Future = Future()
        with self._lock:
            task_id = self._next_task_id
            self._next_task_id += 1
            pending = _Pending(
                task_id, fn_name, payload, future, deadline,
                MAX_TASK_RETRIES,
            )
            self._pending[task_id] = pending
            self.stats.submitted += 1
        self._enqueue(pending)
        return future

    def map(self, fn_name: str, payloads,
            deadline: Optional[float] = None):
        """Submit every payload, then yield values in submission order
        (deterministic merge regardless of completion order)."""
        futures = [
            self.submit(fn_name, payload, deadline=deadline)
            for payload in payloads
        ]
        for future in futures:
            yield future.result().value

    def _enqueue(self, pending: _Pending) -> None:
        pending.started_wall = None
        pending.pid = None
        pending.submitted_wall = time.time()
        self._task_queue.put((
            _MSG_TASK, pending.task_id, pending.fn_name,
            pending.payload, pending.submitted_wall,
        ))

    def _fail_unsendable(self, message, error: Exception) -> None:
        """Fail the task whose message the queue could not pickle (stop
        sentinels always pickle)."""
        with self._lock:
            pending = self._pending.pop(message[1], None)
            if pending is not None:
                self.stats.task_errors += 1
        if pending is not None and not pending.future.done():
            pending.future.set_exception(error)

    # -- collector ------------------------------------------------------
    def _wait_for_result(self, timeout: float) -> bool:
        """Block until a result message is readable, or timeout."""
        reader = getattr(self._result_queue, "_reader", None)
        if reader is not None:
            return reader.poll(timeout)
        deadline = time.monotonic() + timeout  # pragma: no cover
        while time.monotonic() < deadline:  # pragma: no cover
            if not self._result_queue.empty():
                return True
            time.sleep(0.002)
        return False  # pragma: no cover

    def _collect_loop(self) -> None:
        # Deadlines and worker liveness are checked on a fixed cadence,
        # not only when the result queue goes quiet: under a steady
        # stream of results an overdue task must still be killed and a
        # dead worker's task still retried.
        next_check = time.monotonic() + _POLL_INTERVAL
        while True:
            try:
                ready = self._wait_for_result(
                    max(0.0, next_check - time.monotonic())
                )
                message = self._result_queue.get() if ready else None
            except (EOFError, OSError):  # pragma: no cover - teardown
                return
            if message is not None:
                self._handle(message)
            if self._closed and not self._pending:
                return
            if time.monotonic() >= next_check:
                self._check_deadlines()
                self._check_workers()
                next_check = time.monotonic() + _POLL_INTERVAL

    def _handle(self, message) -> None:
        kind = message[0]
        if kind == "started":
            _, task_id, pid, started_wall = message
            with self._lock:
                pending = self._pending.get(task_id)
                if pending is not None:
                    pending.started_wall = started_wall
                    pending.pid = pid
            return
        if kind == "done":
            _, task_id, pid, value, (queue_wait_s, execute_s) = message
            with self._lock:
                pending = self._pending.pop(task_id, None)
                if pending is not None:
                    self.stats.completed += 1
            if pending is not None and not pending.future.done():
                pending.future.set_result(TaskResult(
                    value=value, pid=pid,
                    queue_wait_s=queue_wait_s, execute_s=execute_s,
                ))
            return
        if kind == "error":
            _, task_id, pid, text, remote_traceback = message
            with self._lock:
                pending = self._pending.pop(task_id, None)
                if pending is not None:
                    self.stats.task_errors += 1
            if pending is not None and not pending.future.done():
                pending.future.set_exception(
                    RemoteTaskError(text, remote_traceback)
                )

    def _check_workers(self) -> None:
        """Detect crashed workers: retry their tasks, spawn replacements."""
        with self._lock:
            dead = [
                process for process in self._workers
                if not process.is_alive()
            ]
            if not dead:
                return
            for process in dead:
                self._workers.remove(process)
            dead_pids = {process.pid for process in dead}
            lost = [
                pending for pending in self._pending.values()
                if pending.pid in dead_pids
                and pending.started_wall is not None
            ]
            self.stats.crashes += len(lost)
            replacements = 0 if self._closed else len(dead)
        for pending in lost:
            self._retry_or_fail(pending)
        for _ in range(replacements):
            self.stats.workers_recycled += 1
            with self._lock:
                self._spawn_worker()

    def _check_deadlines(self) -> None:
        """Kill + recycle workers whose current task blew its deadline.

        Killing the process stops any task, including one stuck in C
        code or a wedged worker.
        """
        now = time.time()
        with self._lock:
            overdue = [
                pending for pending in self._pending.values()
                if pending.deadline and pending.started_wall is not None
                and now - pending.started_wall > pending.deadline
            ]
        for pending in overdue:
            with self._lock:
                if pending.task_id not in self._pending:
                    continue  # finished while we looked
                del self._pending[pending.task_id]
                self.stats.deadline_kills += 1
                victim = next(
                    (process for process in self._workers
                     if process.pid == pending.pid), None,
                )
            if victim is not None:
                victim.terminate()
                victim.join(timeout=1.0)
            if not pending.future.done():
                pending.future.set_exception(DeadlineExceeded(
                    f"task {pending.fn_name!r} exceeded its "
                    f"{pending.deadline:g}s deadline; worker "
                    f"{pending.pid} recycled"
                ))
            # _check_workers spawns the replacement on its next pass.

    def _retry_or_fail(self, pending: _Pending) -> None:
        if pending.retries_left > 0 and not self._closed:
            pending.retries_left -= 1
            with self._lock:
                self.stats.retries += 1
            self._enqueue(pending)
            return
        with self._lock:
            self._pending.pop(pending.task_id, None)
        if not pending.future.done():
            pending.future.set_exception(WorkerCrashError(
                f"worker {pending.pid} died executing "
                f"{pending.fn_name!r} and the retry budget is exhausted"
            ))


# ----------------------------------------------------------------------
# The shared warm pool
# ----------------------------------------------------------------------
_shared: Optional[WorkerPool] = None
_shared_lock = threading.Lock()


def shared_pool(workers: int = 1) -> WorkerPool:
    """The process-wide warm pool, grown to at least ``workers``.

    The first caller pays pool startup; every later dispatch — another
    experiment run, a lint sweep, the async front door — reuses the
    same warm workers.  The pool is shut down at interpreter exit.
    """
    global _shared
    with _shared_lock:
        if _shared is None or _shared.closed:
            _shared = WorkerPool(workers=max(1, workers))
        else:
            _shared.ensure_workers(workers)
        return _shared


def shutdown_shared_pool() -> None:
    """Drain and stop the shared pool (tests / interpreter exit)."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None and not pool.closed:
        pool.close(drain=True, timeout=5.0)


atexit.register(shutdown_shared_pool)
