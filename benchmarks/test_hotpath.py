"""Hot-path overhaul benchmark: seed pipeline vs optimized pipeline.

Compiles the bench suite (>= 100 loops) through the retained
slow-reference path (``repro.baselines.reference_pipeline`` — monolithic
RecMII, networkx SCCs, min()-scan scheduler, dict-rebuilding MRT) and
through the optimized path (compiled DDG views, memoized per-SCC RecMII,
heap-driven scheduler, counter-based MRT probes), asserts the outcomes
are bit-identical, times the optimized path again through the
experiment runner in-process and with 4 workers, and writes everything to
``BENCH_hotpath.json`` at the repository root, in the shared
:mod:`repro.obs.bench` schema.

The >= 2x throughput assertion compares the seed serial wall time
against the runner's 4-worker wall time and is enforced only when the
host exposes at least 4 usable cores (PR-2 convention): on a single-core
container the parallel leg cannot contribute, and the artifact records
the core count so the recorded speedups are interpretable either way.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_hotpath.py -q``
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro import obs
from repro.analysis import EngineOptions, run_experiment
from repro.baselines import reference_compile_loop
from repro.core.driver import compile_loop
from repro.machine import two_cluster_gp
from repro.workloads import paper_suite

from conftest import bench_suite_size, print_report

WORKERS = 4
MIN_SPEEDUP = 2.0
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@pytest.mark.bench
def test_hotpath_speedup_and_bit_identity():
    n_loops = max(100, bench_suite_size())
    loops = paper_suite(n_loops)
    machine = two_cluster_gp()
    cores = _usable_cores()

    started = time.perf_counter()
    reference = [reference_compile_loop(ddg, machine) for ddg in loops]
    seed_serial_s = time.perf_counter() - started

    started = time.perf_counter()
    optimized = [compile_loop(ddg, machine) for ddg in loops]
    opt_serial_s = time.perf_counter() - started

    for ref, opt in zip(reference, optimized):
        name = opt.ddg.name or "loop"
        assert opt.ii == ref.ii, name
        assert opt.copy_count == ref.copy_count, name
        assert dict(opt.schedule.start) == ref.start, name

    # The experiment runner over the optimized path, in-process and with
    # workers (the experiment legs also compile each loop's unified
    # baseline, so they are not directly comparable to the bare compile
    # loops above — both legs are recorded and compared against each
    # other).
    started = time.perf_counter()
    engine_serial = run_experiment(loops, machine)
    engine_serial_s = time.perf_counter() - started

    started = time.perf_counter()
    engine_parallel = run_experiment(
        loops, machine, options=EngineOptions(workers=WORKERS)
    )
    engine_parallel_s = time.perf_counter() - started
    assert engine_parallel.outcomes == engine_serial.outcomes

    serial_speedup = seed_serial_s / opt_serial_s if opt_serial_s else 0.0
    engine_speedup = (
        engine_serial_s / engine_parallel_s if engine_parallel_s else 0.0
    )
    combined_speedup = serial_speedup * engine_speedup

    enforce_speedup = cores >= WORKERS
    artifact = obs.bench.make_artifact(
        "hotpath",
        metrics={
            "seed_serial_s": round(seed_serial_s, 6),
            "optimized_serial_s": round(opt_serial_s, 6),
            "serial_speedup": round(serial_speedup, 4),
            "engine_serial_s": round(engine_serial_s, 6),
            "engine_parallel_s": round(engine_parallel_s, 6),
            "engine_speedup": round(engine_speedup, 4),
            "combined_speedup": round(combined_speedup, 4),
        },
        regression_metrics=["optimized_serial_s"],
        info={
            "loops": n_loops,
            "machine": machine.name,
            "workers": WORKERS,
            "usable_cores": cores,
            "min_speedup": MIN_SPEEDUP,
            "speedup_enforced": enforce_speedup,
            "outcomes_identical": True,
        },
    )
    obs.bench.write_artifact(artifact, ARTIFACT)

    print_report(
        f"Hot-path overhaul — {n_loops} loops on {machine.name} "
        f"({cores} cores)",
        f"seed serial: {seed_serial_s:.2f}s   "
        f"optimized serial: {opt_serial_s:.2f}s   "
        f"speedup: {serial_speedup:.2f}x",
        f"engine serial: {engine_serial_s:.2f}s   "
        f"engine x{WORKERS}: {engine_parallel_s:.2f}s   "
        f"speedup: {engine_speedup:.2f}x",
        f"combined (seed serial -> optimized x{WORKERS}): "
        f"{combined_speedup:.2f}x",
        f"outcomes bit-identical; wrote {ARTIFACT.name}",
    )
    if enforce_speedup:
        assert combined_speedup >= MIN_SPEEDUP, (
            f"seed-serial -> optimized-{WORKERS}-worker speedup "
            f"{combined_speedup:.2f}x below {MIN_SPEEDUP:.1f}x on a "
            f"{cores}-core host"
        )
