"""Perturbed generator profiles compile alike in process and in a pool.

Loops drawn from a ``GeneratorProfile`` whose fields move within sane
ranges are compiled on every standard preset, a 5-cluster ring and a
[6, 2] pair of unequal GP clusters: once by ``compile_loop`` in this
process and once by the ``compile_batch`` task of a one-worker pool.
Status, II, MII and copy count must agree loop by loop.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompilationError, compile_loop
from repro.machine import (
    PAPER_GRID_MIX,
    STANDARD_PRESETS,
    heterogeneous_gp,
    ring_machine,
)
from repro.service import WorkerPool
from repro.workloads import GeneratorProfile, generate_loop

MACHINES = [build() for build in STANDARD_PRESETS.values()] + [
    ring_machine(5, PAPER_GRID_MIX),
    heterogeneous_gp([6, 2], buses=2, ports=1),
]


@pytest.fixture(scope="module")
def pool():
    workers = WorkerPool(workers=1)
    workers.warm_up()
    yield workers
    workers.close()


@st.composite
def profiles(draw):
    """The default profile with its shape fields moved; loops stay
    small (at most 24 nodes) to keep each example cheap."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    return dataclasses.replace(
        GeneratorProfile(),
        node_mu=math.log(draw(st.floats(min_value=3.0, max_value=16.0))),
        node_sigma=draw(st.floats(min_value=0.1, max_value=1.0)),
        node_max=draw(st.integers(min_value=4, max_value=24)),
        scc_loop_fraction=draw(unit),
        scc_continue_probability=draw(
            st.floats(min_value=0.0, max_value=0.8)
        ),
        scc_max_per_loop=draw(st.integers(min_value=1, max_value=6)),
        scc_len_mean=draw(st.floats(min_value=2.0, max_value=10.0)),
        pred_weights=tuple(
            draw(st.floats(min_value=0.05, max_value=1.0))
            for _ in range(3)
        ),
        load_fraction=draw(st.floats(min_value=0.05, max_value=0.5)),
        store_fraction=draw(st.floats(min_value=0.05, max_value=0.3)),
        branch_probability=draw(unit),
        memory_edge_probability=draw(unit),
    )


def _in_process(ddg, machine):
    try:
        compiled = compile_loop(ddg, machine)
    except (CompilationError, ValueError):
        return "failed", 0, 0, 0
    return "ok", compiled.ii, compiled.mii, compiled.copy_count


@given(profiles(), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_pool_compiles_like_the_process(pool, profile, seed):
    rng = random.Random(seed)
    loops = [
        generate_loop(rng, profile, name=f"p{i}") for i in range(3)
    ]
    items = [(ddg, machine) for ddg in loops for machine in MACHINES]
    replies = pool.submit(
        "compile_batch",
        [(ddg, machine, "heuristic-iterative") for ddg, machine in items],
    ).result().value
    for (ddg, machine), reply in zip(items, replies):
        assert (
            reply["status"], reply["ii"], reply["mii"], reply["copies"]
        ) == _in_process(ddg, machine), (machine.name, ddg.name)
