"""Differential test: optimized pipeline vs the retained slow reference.

The hot-path overhaul (compiled DDG views, memoized per-SCC RecMII, the
heap-driven scheduler, counter-based MRT probes) is required to be
**bit-identical** to the seed implementations: same final II, same copy
counts, same start-cycle maps, same cluster maps.  This test compiles the
synthetic corpus and every hand-written paper kernel through both paths
and compares outcomes exactly; it also diffs the individual stages
(RecMII, SCC partition, priority metrics, SMS assignment order) that the
two paths compute independently.

``REPRO_SUITE_SIZE`` scales the synthetic corpus slice (default 60).
"""

from __future__ import annotations

import os

import pytest

from repro.baselines import (
    reference_assignment_order,
    reference_compile_loop,
    reference_compute_metrics,
    reference_find_sccs,
    reference_rec_mii,
)
from repro.core.driver import compile_loop
from repro.ddg.mii import rec_mii
from repro.machine.presets import (
    four_cluster_fs,
    four_cluster_gp,
    four_cluster_grid,
    two_cluster_fs,
    two_cluster_gp,
)
from repro.scheduling.swing import assignment_order
from repro.scheduling.priority import compute_metrics
from repro.ddg.scc import find_sccs
from repro.workloads import paper_suite
from repro.workloads.kernels import all_kernels


def _suite_size(default: int = 60) -> int:
    raw = os.environ.get("REPRO_SUITE_SIZE")
    if not raw:
        return default
    return max(1, int(raw))


def _loops():
    return paper_suite(_suite_size()) + all_kernels()


@pytest.fixture(scope="module")
def loops():
    return _loops()


# ----------------------------------------------------------------------
# Stage-level differentials (fast paths vs frozen seed implementations)
# ----------------------------------------------------------------------
def test_rec_mii_matches_reference(loops) -> None:
    for ddg in loops:
        assert rec_mii(ddg) == reference_rec_mii(ddg), ddg.name


def test_scc_partition_matches_reference(loops) -> None:
    for ddg in loops:
        fast = find_sccs(ddg)
        slow = reference_find_sccs(ddg)
        assert [scc.nodes for scc in fast.sccs] == [
            scc.nodes for scc in slow.sccs
        ], ddg.name
        assert [scc.rec_mii for scc in fast.sccs] == [
            scc.rec_mii for scc in slow.sccs
        ], ddg.name
        assert fast.membership == slow.membership, ddg.name


def test_priority_metrics_match_reference(loops) -> None:
    for ddg in loops:
        base = max(rec_mii(ddg), 1)
        for ii in (base, base + 1, base + 3):
            fast = compute_metrics(ddg, ii)
            slow = reference_compute_metrics(ddg, ii)
            assert fast.asap == slow.asap, (ddg.name, ii)
            assert fast.alap == slow.alap, (ddg.name, ii)
            assert fast.height == slow.height, (ddg.name, ii)
            assert fast.critical_path == slow.critical_path, (ddg.name, ii)


def test_assignment_order_matches_reference(loops) -> None:
    for ddg in loops:
        base = max(rec_mii(ddg), 1)
        for ii in (base, base + 2):
            metrics = compute_metrics(ddg, ii)
            assert assignment_order(ddg, metrics) == (
                reference_assignment_order(ddg, ii)
            ), (ddg.name, ii)


# ----------------------------------------------------------------------
# End-to-end differential: full Figure-5 compilations, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "machine_factory",
    [
        two_cluster_gp, two_cluster_fs, four_cluster_gp, four_cluster_fs,
        four_cluster_grid,
    ],
    ids=["2gp-bus", "2fs-bus", "4gp-bus", "4fs-bus", "4grid-p2p"],
)
def test_compilation_bit_identical(machine_factory, loops) -> None:
    machine = machine_factory()
    for ddg in loops:
        ref = reference_compile_loop(ddg, machine)
        opt = compile_loop(ddg, machine)
        name = ddg.name or "loop"
        assert opt.ii == ref.ii, name
        assert opt.mii == ref.mii, name
        assert opt.copy_count == ref.copy_count, name
        assert dict(opt.schedule.start) == ref.start, name
        assert dict(opt.annotated.cluster_of) == ref.cluster_of, name
