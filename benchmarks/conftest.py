"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures over the
evaluation suite.  The suite size defaults to a quick-but-meaningful 250
loops; set ``REPRO_SUITE_SIZE=1327`` to run the paper-scale population
(the numbers recorded in EXPERIMENTS.md were produced at full scale).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import UnifiedBaseline
from repro.workloads import paper_suite

DEFAULT_SUITE_SIZE = 250


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)


def bench_suite_size() -> int:
    """Suite size for benchmark runs (env-overridable)."""
    return int(os.environ.get("REPRO_SUITE_SIZE", DEFAULT_SUITE_SIZE))


def usable_cores() -> int:
    """CPUs this process may run on (speedup gates need >= 4)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@pytest.fixture(scope="session")
def suite():
    """The evaluation loop suite shared by every benchmark."""
    return paper_suite(bench_suite_size())


@pytest.fixture(scope="session")
def baseline():
    """Unified-machine II cache shared across all benchmarks: sweeps
    that share a machine width reuse each loop's baseline II."""
    return UnifiedBaseline()


def print_report(title: str, *blocks: str) -> None:
    """Emit one benchmark's figure/table reproduction to stdout."""
    width = max(len(title), 60)
    print()
    print("=" * width)
    print(title)
    print("=" * width)
    for block in blocks:
        print(block)
        print()
