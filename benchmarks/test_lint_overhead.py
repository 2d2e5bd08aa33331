"""Lint-gate overhead benchmark: ``--lint`` on an untraced corpus compile.

Runs the bundled corpus experiment on both preset machines (the same two
configurations the CI lint job covers) with and without the ``--lint``
gate, takes best-of-N wall times per leg, and asserts the gate adds less
than 10% overhead across the two machines combined.  The lint leg must
also come back clean — an overhead number measured over a corpus the
gate rejects would be meaningless.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_lint_overhead.py -q``
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.analysis import run_experiment
from repro.lint import DEFAULT_CONFIG
from repro.machine import four_cluster_grid, two_cluster_gp
from repro.workloads import bundled_corpus

from conftest import print_report

MAX_OVERHEAD = 0.10
REPEATS = 7


def _timed(fn) -> float:
    # Collect (then pause) the garbage collector so allocation-heavy
    # legs don't pay for cycles the previous leg created: a gen-2 pass
    # landing mid-leg is several percent of noise on a sub-second run.
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started
    finally:
        gc.enable()


@pytest.mark.bench
def test_lint_gate_overhead_under_10_percent():
    loops = bundled_corpus()
    machines = [two_cluster_gp(), four_cluster_grid()]

    per_machine = []
    plain_total = 0.0
    linted_total = 0.0
    for machine in machines:
        def plain():
            run_experiment(loops, machine)

        def linted():
            return run_experiment(
                loops, machine, lint_config=DEFAULT_CONFIG
            )

        # Warm both legs off the clock (imports, memoized rule tables);
        # the warm lint run doubles as the clean-gate check.
        plain()
        result = linted()
        assert result.total_lint_errors == 0, (
            f"lint gate rejected the bundled corpus on {machine.name}: "
            f"{result.lint_code_counts()}"
        )
        # Interleave the legs so clock-speed drift hits both equally;
        # the best-of floor of each leg is the comparable number.
        plain_s = linted_s = None
        for _ in range(REPEATS):
            p = _timed(plain)
            l = _timed(linted)
            plain_s = p if plain_s is None else min(plain_s, p)
            linted_s = l if linted_s is None else min(linted_s, l)
        overhead = (linted_s - plain_s) / plain_s
        per_machine.append(
            {
                "machine": machine.name,
                "plain_s": round(plain_s, 6),
                "linted_s": round(linted_s, 6),
                "overhead": round(overhead, 4),
            }
        )
        plain_total += plain_s
        linted_total += linted_s

    combined = (linted_total - plain_total) / plain_total
    print_report(
        f"Lint-gate overhead — {len(loops)} corpus loops, "
        f"best of {REPEATS}",
        "\n".join(
            f"{entry['machine']}: plain {entry['plain_s']:.3f}s   "
            f"linted {entry['linted_s']:.3f}s   "
            f"overhead {100 * entry['overhead']:.1f}%"
            for entry in per_machine
        ),
        f"combined: plain {plain_total:.3f}s   "
        f"linted {linted_total:.3f}s   "
        f"overhead {100 * combined:.1f}% "
        f"(budget {100 * MAX_OVERHEAD:.0f}%)",
        "corpus clean under the gate",
    )
    assert combined < MAX_OVERHEAD, (
        f"--lint adds {100 * combined:.1f}% to the corpus compile "
        f"across {len(machines)} machines, budget is "
        f"{100 * MAX_OVERHEAD:.0f}%"
    )
