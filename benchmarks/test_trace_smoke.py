"""Tracing-overhead smoke benchmark.

Compiles a 20-loop slice of the evaluation suite with tracing disabled
and enabled, and asserts the traced run stays within 10% of the
untraced one (the disabled fast path must stay ~free, and even
*enabled* tracing must remain cheap relative to compilation).

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_trace_smoke.py -q``
"""

from __future__ import annotations

import time

from repro import obs
from repro.analysis import UnifiedBaseline, run_experiment
from repro.machine import two_cluster_gp
from repro.workloads import paper_suite

from conftest import print_report

SMOKE_LOOPS = 20
ROUNDS = 3
MAX_OVERHEAD = 0.10


def _best_of(rounds: int, run) -> float:
    """Min wall time over ``rounds`` runs (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_tracing_overhead_smoke():
    loops = paper_suite(SMOKE_LOOPS)
    machine = two_cluster_gp()

    def run_untraced():
        # A fresh baseline each round: identical work in both modes.
        run_experiment(loops, machine, baseline=UnifiedBaseline())

    trace = obs.Trace()

    def run_traced():
        with obs.tracing(trace):
            run_experiment(loops, machine, baseline=UnifiedBaseline())

    run_untraced()  # warm caches before timing any mode
    untraced = _best_of(ROUNDS, run_untraced)
    traced = _best_of(ROUNDS, run_traced)
    overhead = traced / untraced - 1.0

    print_report(
        "Trace smoke — 20-loop slice, tracing off vs. on",
        f"untraced: {untraced * 1e3:.1f}ms   traced: {traced * 1e3:.1f}ms"
        f"   overhead: {overhead * 100:+.1f}%",
    )
    assert overhead < MAX_OVERHEAD, (
        f"tracing overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% "
        f"(untraced {untraced:.4f}s, traced {traced:.4f}s)"
    )
