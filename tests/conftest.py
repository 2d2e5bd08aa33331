"""Shared fixtures: reference graphs and machines used across the suite."""

from __future__ import annotations

import pytest

from repro.ddg import Ddg, Opcode, build_ddg
from repro.machine import (
    four_cluster_fs,
    four_cluster_gp,
    four_cluster_grid,
    two_cluster_fs,
    two_cluster_gp,
    unified_gp,
)


@pytest.fixture
def intro_example() -> Ddg:
    """The paper's Section 3 example: six unit-latency ops (C is a
    2-cycle load) with recurrence D -> B at distance 1.

    RecMII = (1 + 2 + 1) / 1 = 4 per the paper's walk-through.
    """
    return build_ddg(
        ops=[
            ("a", Opcode.ALU),
            ("b", Opcode.ALU),
            ("c", Opcode.LOAD),
            ("d", Opcode.ALU),
            ("e", Opcode.ALU),
            ("f", Opcode.ALU),
        ],
        deps=[
            ("a", "b", 0),
            ("b", "c", 0),
            ("c", "d", 0),
            ("d", "b", 1),
            ("d", "e", 0),
            ("e", "f", 0),
        ],
        name="intro",
    )


@pytest.fixture
def chain3() -> Ddg:
    """A three-op dependence chain: load -> fp_mult -> store."""
    return build_ddg(
        ops=[("ld", Opcode.LOAD), ("mul", Opcode.FP_MULT),
             ("st", Opcode.STORE)],
        deps=[("ld", "mul", 0), ("mul", "st", 0)],
        name="chain3",
    )


@pytest.fixture
def accumulator() -> Ddg:
    """A self-recurrent accumulator: add depends on itself at distance 1."""
    graph = Ddg(name="accumulator")
    load = graph.add_node(Opcode.LOAD, name="ld")
    acc = graph.add_node(Opcode.FP_ADD, name="acc")
    graph.add_edge(load, acc, distance=0)
    graph.add_edge(acc, acc, distance=1)
    return graph


@pytest.fixture
def two_gp():
    """Paper baseline: 2 clusters x 4 GP units, 2 buses, 1 port."""
    return two_cluster_gp()


@pytest.fixture
def four_gp():
    """Paper baseline: 4 clusters x 4 GP units, 4 buses, 2 ports."""
    return four_cluster_gp()


@pytest.fixture
def two_fs():
    """2 clusters x 4 FS units (1 mem, 2 int, 1 fp), 2 buses, 1 port."""
    return two_cluster_fs()


@pytest.fixture
def four_fs():
    """4 clusters x 4 FS units, 4 buses, 2 ports."""
    return four_cluster_fs()


@pytest.fixture
def grid():
    """The 2x2 grid of 3-FS-unit clusters with point-to-point links."""
    return four_cluster_grid()


@pytest.fixture
def uni8():
    """Unified 8-wide GP machine (baseline for the 2-cluster setups)."""
    return unified_gp(8)


@pytest.fixture(
    params=["two_gp", "four_gp", "two_fs", "four_fs", "grid"]
)
def any_clustered_machine(request):
    """Every clustered machine configuration of the paper."""
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="session")
def reference_outcomes():
    """``build(loops, machine, config)``: the outcome list the experiment
    runner must reproduce, built from the frozen reference pipeline
    (:func:`repro.baselines.reference_compile_loop`) on the unified and
    the clustered machine."""
    from repro.analysis import LoopOutcome
    from repro.baselines import reference_compile_loop
    from repro.core import HEURISTIC_ITERATIVE

    def build(loops, machine, config=HEURISTIC_ITERATIVE):
        unified = machine.unified_equivalent()
        outcomes = []
        for ddg in loops:
            clustered = reference_compile_loop(ddg, machine, config)
            outcomes.append(LoopOutcome(
                loop_name=ddg.name,
                unified_ii=reference_compile_loop(ddg, unified).ii,
                clustered_ii=clustered.ii,
                copies=clustered.copy_count,
            ))
        return outcomes

    return build


@pytest.fixture(scope="session")
def annotation_issues():
    """``issues(annotated)``: certify's verdict on an annotated graph
    alone, the CERT603 (cluster assignment and copy routing) issues of
    :func:`repro.scheduling.check_schedule` over it.  That section
    reads no start cycle, so any start map serves."""
    from repro.scheduling import Schedule, check_schedule

    def issues(annotated):
        schedule = Schedule(
            annotated=annotated, ii=1,
            start=dict.fromkeys(annotated.ddg.node_ids, 0),
        )
        return [
            issue for issue in check_schedule(schedule)
            if issue.code == "CERT603"
        ]

    return issues
