"""Certify-gate overhead benchmark: ``--certify`` on a corpus compile.

Runs the bundled corpus experiment on both preset machines with and
without the ``--certify`` gate (certificate emission + independent
verification; the exact oracle is excluded — it is an opt-in analysis,
not part of the gate), takes best-of-N wall times per leg, and asserts
the gate adds less than 10% overhead across the two machines combined.
The certify legs must also come back clean — an overhead number
measured over a corpus the verifier rejects would be meaningless.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_certify_overhead.py -q``
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import run_experiment
from repro.certify import DEFAULT_CERTIFY
from repro.machine import four_cluster_grid, two_cluster_gp
from repro.workloads import bundled_corpus

from conftest import print_report

MAX_OVERHEAD = 0.10
REPEATS = 5


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


@pytest.mark.bench
def test_certify_gate_overhead_under_10_percent():
    loops = bundled_corpus()
    machines = [two_cluster_gp(), four_cluster_grid()]

    per_machine = []
    plain_total = 0.0
    certified_total = 0.0
    for machine in machines:
        def plain():
            run_experiment(loops, machine)

        def certified():
            return run_experiment(
                loops, machine, certify_config=DEFAULT_CERTIFY
            )

        # Warm both legs off the clock; the warm certify run doubles
        # as the clean-gate check.
        plain()
        result = certified()
        assert result.total_cert_errors == 0, (
            f"certify gate rejected the bundled corpus on "
            f"{machine.name}: {result.cert_code_counts()}"
        )
        # Interleave the legs so clock-speed drift hits both equally.
        plain_s = certified_s = None
        for _ in range(REPEATS):
            p = _timed(plain)
            c = _timed(certified)
            plain_s = p if plain_s is None else min(plain_s, p)
            certified_s = (
                c if certified_s is None else min(certified_s, c)
            )
        overhead = (certified_s - plain_s) / plain_s
        per_machine.append(
            {
                "machine": machine.name,
                "plain_s": round(plain_s, 6),
                "certified_s": round(certified_s, 6),
                "overhead": round(overhead, 4),
            }
        )
        plain_total += plain_s
        certified_total += certified_s

    combined = (certified_total - plain_total) / plain_total
    print_report(
        f"Certify-gate overhead — {len(loops)} corpus loops, "
        f"best of {REPEATS}",
        "\n".join(
            f"{entry['machine']}: plain {entry['plain_s']:.3f}s   "
            f"certified {entry['certified_s']:.3f}s   "
            f"overhead {100 * entry['overhead']:.1f}%"
            for entry in per_machine
        ),
        f"combined: plain {plain_total:.3f}s   "
        f"certified {certified_total:.3f}s   "
        f"overhead {100 * combined:.1f}% "
        f"(budget {100 * MAX_OVERHEAD:.0f}%)",
        "corpus clean under the gate",
    )
    assert combined < MAX_OVERHEAD, (
        f"--certify adds {100 * combined:.1f}% to the corpus compile "
        f"across {len(machines)} machines, budget is "
        f"{100 * MAX_OVERHEAD:.0f}%"
    )
