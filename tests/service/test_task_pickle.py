"""Every pool task's payload and value survive a pickle round trip.

The pool ships ``(task name, payload)`` to a worker process and the
task's value back, so a lambda, local function, generator or open
handle on either side only breaks once a real worker runs it.  Each
case below drives the task's real caller against a stand-in pool that
pickles the payload, runs the task in-process, and pickles the value.
"""

from __future__ import annotations

import asyncio
import os
import pickle
from concurrent.futures import Future

import pytest

from repro import obs
from repro.analysis.experiment import EngineOptions, run_experiment
from repro.cli import main
from repro.lint import DEFAULT_CONFIG
from repro.machine.presets import two_cluster_gp
from repro.service import CompileRequest, CompileService, TaskResult
from repro.service import tasks
from repro.workloads import paper_suite


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


class _PicklingPool:
    """Stands in for :class:`WorkerPool`: every payload and value crosses
    a pickle round trip, and the task runs in this process."""

    def __init__(self):
        self.dispatched = []

    def ensure_workers(self, workers):
        pass

    def submit(self, fn_name, payload, deadline=None):
        self.dispatched.append(fn_name)
        value = _round_trip(tasks.TASKS[fn_name](_round_trip(payload)))
        future = Future()
        future.set_result(TaskResult(value, os.getpid(), 0.0, 0.0))
        return future

    def map(self, fn_name, payloads):
        for payload in payloads:
            yield self.submit(fn_name, payload).result().value


def _engine_chunk(pool, monkeypatch, capsys):
    # Traced, so the chunk's value carries the worker trace events too.
    with obs.tracing():
        run_experiment(
            paper_suite(2), two_cluster_gp(), lint_config=DEFAULT_CONFIG,
            options=EngineOptions(workers=2, pool=pool),
        )


def _cli(*argv):
    def case(pool, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.service.map_tasks",
            lambda fn_name, payloads, workers: pool.map(fn_name, payloads),
        )
        main(list(argv) + ["--suite", "2", "--workers", "2"])
        capsys.readouterr()
    return case


def _compile_batch(pool, monkeypatch, capsys):
    async def serve():
        async with CompileService(pool=pool) as service:
            await service.submit(CompileRequest(loop=paper_suite(1)[0]))

    asyncio.run(serve())


def _ping(pool, monkeypatch, capsys):
    pool.submit("ping", 0).result()


def _sleep(pool, monkeypatch, capsys):
    pool.submit("sleep", 0.0).result()


#: Task name -> a case that dispatches it the way its real caller does.
CASES = {
    "engine_chunk": _engine_chunk,
    "certify_loop": _cli("certify"),
    "compile_batch": _compile_batch,
    "ping": _ping,
    "sleep": _sleep,
}


@pytest.mark.parametrize("name", sorted(tasks.TASKS))
def test_task_payload_and_value_pickle(name, monkeypatch, capsys):
    if name not in CASES:
        pytest.fail(f"task {name!r} has no pickle round-trip case")
    pool = _PicklingPool()
    CASES[name](pool, monkeypatch, capsys)
    assert name in pool.dispatched
