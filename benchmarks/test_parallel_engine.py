"""Parallel experiment-runner benchmark.

Runs the bench suite (>= 100 loops) through the experiment runner
in-process and with 4 workers, asserts both outcome lists equal the
frozen reference (:mod:`repro.baselines`), verifies fault tolerance on
an injected unschedulable loop, and writes in-process-vs-parallel wall
times plus the speedup to ``BENCH_parallel_engine.json`` at the
repository root, in the shared :mod:`repro.obs.bench` schema.

The >= 2x speedup assertion is enforced only when the host exposes at
least 4 usable cores: a process pool cannot beat the serial path on a
single-core container, and the artifact records the core count so the
recorded speedup is interpretable either way.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_parallel_engine.py -q``
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro import obs
from repro.analysis import EngineOptions, LoopOutcome, run_experiment
from repro.baselines import reference_compile_loop
from repro.ddg import Opcode, build_ddg
from repro.machine import two_cluster_gp
from repro.workloads import paper_suite

from conftest import bench_suite_size, print_report

WORKERS = 4
MIN_SPEEDUP = 2.0
ARTIFACT = (Path(__file__).resolve().parent.parent
            / "BENCH_parallel_engine.json")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _reference_outcomes(loops, machine):
    """The outcomes the runner must reproduce, from the frozen
    reference pipeline on the unified and the clustered machine."""
    unified = machine.unified_equivalent()
    outcomes = []
    for ddg in loops:
        clustered = reference_compile_loop(ddg, machine)
        outcomes.append(LoopOutcome(
            loop_name=ddg.name,
            unified_ii=reference_compile_loop(ddg, unified).ii,
            clustered_ii=clustered.ii,
            copies=clustered.copy_count,
        ))
    return outcomes


def test_parallel_engine_speedup_and_equality():
    n_loops = max(100, bench_suite_size())
    loops = paper_suite(n_loops)
    machine = two_cluster_gp()
    cores = _usable_cores()

    started = time.perf_counter()
    serial = run_experiment(loops, machine)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_experiment(
        loops, machine, options=EngineOptions(workers=WORKERS)
    )
    parallel_s = time.perf_counter() - started

    reference = _reference_outcomes(loops, machine)
    assert serial.outcomes == reference, (
        "in-process outcomes diverged from the frozen reference"
    )
    assert parallel.outcomes == reference, (
        "parallel outcomes diverged from the frozen reference"
    )
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0

    # Fault tolerance: one injected unschedulable loop must be recorded
    # as failed while the rest of the suite completes.
    bad = build_ddg(
        ops=[("a", Opcode.ALU), ("b", Opcode.ALU)],
        deps=[("a", "b", 0), ("b", "a", 0)],
        name="injected_unschedulable",
    )
    injected = list(loops[:50]) + [bad] + list(loops[50:100])
    tolerant = run_experiment(
        injected, machine, options=EngineOptions(workers=WORKERS)
    )
    assert tolerant.n_loops == len(injected)
    assert [o.loop_name for o in tolerant.failures] == [
        "injected_unschedulable"
    ]

    enforce_speedup = cores >= WORKERS
    artifact = obs.bench.make_artifact(
        "parallel_engine",
        metrics={
            "serial_s": round(serial_s, 6),
            "parallel_s": round(parallel_s, 6),
            "speedup": round(speedup, 4),
        },
        regression_metrics=["serial_s"],
        info={
            "loops": n_loops,
            "machine": machine.name,
            "workers": WORKERS,
            "usable_cores": cores,
            "min_speedup": MIN_SPEEDUP,
            "speedup_enforced": enforce_speedup,
            "outcomes_identical": True,
            "injected_failure_isolated": True,
            "n_failed_serial": serial.n_failed,
        },
    )
    obs.bench.write_artifact(artifact, ARTIFACT)

    print_report(
        f"Parallel engine — {n_loops} loops, serial vs "
        f"{WORKERS} workers ({cores} cores)",
        f"serial: {serial_s:.2f}s   parallel: {parallel_s:.2f}s   "
        f"speedup: {speedup:.2f}x",
        f"outcomes identical; injected failure isolated",
        f"wrote {ARTIFACT.name}",
    )
    if enforce_speedup:
        assert speedup >= MIN_SPEEDUP, (
            f"{WORKERS}-worker speedup {speedup:.2f}x below "
            f"{MIN_SPEEDUP:.1f}x on a {cores}-core host"
        )
