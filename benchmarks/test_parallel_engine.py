"""Experiment-runner benchmark: frozen reference vs optimized pipeline,
in-process vs 4 workers.

Compiles the bench suite (>= 100 loops) once through the frozen seed
pipeline (:func:`repro.baselines.reference_compile_loop` on the unified
and the clustered machine), then runs the same suite plus one injected
unschedulable loop through the experiment runner in-process and with 4
workers, and asserts:

* every clustered compile of the in-process run equals the reference in
  II, copy count and start map;
* the measured outcomes of both runs equal the reference outcomes;
* in both runs the injected loop is the only failure and the rest of
  the suite completes.

Two speedups are enforced only when the host exposes at least 4 usable
cores (a process pool cannot beat the serial path on fewer): in-process
to 4 workers, and seed reference to 4 workers.  Both must be >= 2x; the
report prints them either way.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_parallel_engine.py -q``
"""

from __future__ import annotations

import time

from repro.analysis import (
    EngineOptions, LoopOutcome, experiment, run_experiment,
)
from repro.baselines import reference_compile_loop
from repro.core.driver import compile_loop
from repro.ddg import Opcode, build_ddg
from repro.machine import two_cluster_gp
from repro.workloads import paper_suite

from conftest import bench_suite_size, print_report, usable_cores

WORKERS = 4
MIN_SPEEDUP = 2.0


def test_parallel_engine_speedup_and_equality(monkeypatch):
    n_loops = max(100, bench_suite_size())
    loops = paper_suite(n_loops)
    machine = two_cluster_gp()
    unified = machine.unified_equivalent()
    cores = usable_cores()

    started = time.perf_counter()
    reference_compiles = {}
    reference = []
    for ddg in loops:
        clustered = reference_compile_loop(ddg, machine)
        reference_compiles[ddg.name] = clustered
        reference.append(LoopOutcome(
            loop_name=ddg.name,
            unified_ii=reference_compile_loop(ddg, unified).ii,
            clustered_ii=clustered.ii,
            copies=clustered.copy_count,
        ))
    reference_s = time.perf_counter() - started

    # Fault tolerance rides along: one unschedulable loop mid-suite.
    bad = build_ddg(
        ops=[("a", Opcode.ALU), ("b", Opcode.ALU)],
        deps=[("a", "b", 0), ("b", "a", 0)],
        name="injected_unschedulable",
    )
    suite = list(loops[:50]) + [bad] + list(loops[50:])

    # The in-process run keeps every clustered compile it makes, so the
    # optimized pipeline is checked against the reference beyond the
    # outcome fields.
    compiles = {}

    def recording_compile(ddg, target, *args, **kwargs):
        result = compile_loop(ddg, target, *args, **kwargs)
        if target is machine:
            compiles[ddg.name] = result
        return result

    with monkeypatch.context() as patch:
        patch.setattr(experiment, "compile_loop", recording_compile)
        started = time.perf_counter()
        serial = run_experiment(suite, machine)
        serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_experiment(
        suite, machine, options=EngineOptions(workers=WORKERS)
    )
    parallel_s = time.perf_counter() - started

    for ddg in loops:
        ref, opt = reference_compiles[ddg.name], compiles[ddg.name]
        assert opt.ii == ref.ii, ddg.name
        assert opt.copy_count == ref.copy_count, ddg.name
        assert dict(opt.schedule.start) == ref.start, ddg.name
    for label, run in (("in-process", serial), ("parallel", parallel)):
        assert run.n_loops == len(suite), label
        assert [o.loop_name for o in run.failures] == [
            "injected_unschedulable"
        ], label
        assert run.measured == reference, (
            f"{label} outcomes diverged from the frozen reference"
        )

    engine_speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    seed_speedup = reference_s / parallel_s if parallel_s > 0 else 0.0
    print_report(
        f"Parallel engine — {n_loops} loops on {machine.name}, "
        f"in-process vs {WORKERS} workers ({cores} cores)",
        f"seed reference: {reference_s:.2f}s   in-process: "
        f"{serial_s:.2f}s   x{WORKERS}: {parallel_s:.2f}s",
        f"speedup in-process -> x{WORKERS}: {engine_speedup:.2f}x   "
        f"seed reference -> x{WORKERS}: {seed_speedup:.2f}x",
        "outcomes equal the reference; injected failure isolated",
    )
    if cores >= WORKERS:
        assert engine_speedup >= MIN_SPEEDUP, (
            f"{WORKERS}-worker speedup {engine_speedup:.2f}x below "
            f"{MIN_SPEEDUP:.1f}x on a {cores}-core host"
        )
        assert seed_speedup >= MIN_SPEEDUP, (
            f"seed-reference -> {WORKERS}-worker speedup "
            f"{seed_speedup:.2f}x below {MIN_SPEEDUP:.1f}x on a "
            f"{cores}-core host"
        )
