"""Mutation fuzzing of the compile boundary.

Each row corrupts a generated loop, or builds a machine, with one
defect the validators reject, and drives it through every entry that
compiles: ``compile_loop``, ``run_experiment`` (lenient and strict), the
``CompileService`` front door and, for the defects a loop file can
spell, ``repro compile FILE``.  Every entry must report the defect's
lint code before the first II attempt: never a ``KeyError``, an
``AttributeError``, or a ``CompilationError`` from a search to the II
bound.  Where a constructor refuses a defect, the row mutates the built
object, as a graph or machine assembled elsewhere would arrive.
"""

import asyncio
import os
import pickle
import random
import subprocess
import sys

import pytest

import repro
from repro import obs
from repro.analysis import ExperimentError, run_experiment
from repro.core import compile_loop
from repro.ddg import Edge, Opcode, ValidationError, format_loop
from repro.machine import (
    ClusterSpec,
    Machine,
    PointToPointInterconnect,
    bused_machine,
    fs_units,
    gp_units,
)
from repro.machine.interconnect import BusInterconnect
from repro.service import CompileRequest, CompileService, WorkerPool
from repro.workloads import GeneratorProfile, generate_loop, paper_suite

#: Mutations drawn per validator code.
SEEDS = range(3)

#: The source root of the ``repro`` under test, for subprocesses.
SRC = os.path.dirname(os.path.dirname(repro.__file__))


class PoollessBus(BusInterconnect):
    """A broadcast fabric that advertises no channel pool.  Defined at
    module level so it pickles into pool workers."""

    def channel_resources(self):
        return {}


def _loop(rng):
    return generate_loop(
        rng, GeneratorProfile(), name=f"fuzz{rng.randrange(10 ** 6)}",
        n_nodes=rng.randint(4, 16),
    )


def _gp_machine(rng, name):
    return bused_machine(rng.randint(2, 4), gp_units(4), buses=2, ports=1,
                         name=name)


def _dangling_edge(rng):
    ddg = _loop(rng)
    # Ddg.add_edge refuses an unknown endpoint.
    ddg._edges.append(
        Edge(src=rng.randrange(len(ddg)), dst=len(ddg) + rng.randrange(5))
    )
    return ddg, _gp_machine(rng, "fuzz-gp")


def _zero_distance_cycle(rng):
    ddg = _loop(rng)
    forward = [edge for edge in ddg.edges if edge.distance == 0]
    if forward and rng.random() < 0.7:
        edge = rng.choice(forward)
        ddg.add_edge(edge.dst, edge.src, distance=0)
    else:
        node = rng.randrange(len(ddg))
        ddg.add_edge(node, node, distance=0)
    return ddg, _gp_machine(rng, "fuzz-gp")


def _negative_distance(rng):
    ddg = _loop(rng)
    # Edge refuses a negative distance.
    object.__setattr__(
        rng.choice(ddg.edges), "distance", -rng.randint(1, 3)
    )
    return ddg, _gp_machine(rng, "fuzz-gp")


def _negative_latency(rng):
    ddg = _loop(rng)
    node = ddg.add_node(Opcode.ALU, latency=-rng.randint(1, 4))
    ddg.add_edge(rng.randrange(node), node)
    return ddg, _gp_machine(rng, "fuzz-gp")


def _input_copy(rng):
    ddg = _loop(rng)
    node = ddg.add_node(Opcode.COPY)
    ddg.add_edge(rng.randrange(node), node)
    return ddg, _gp_machine(rng, "fuzz-gp")


def _empty_cluster(rng):
    n_clusters = rng.randint(2, 4)
    empty = gp_units(4)
    clusters = [ClusterSpec(i, gp_units(4)) for i in range(n_clusters)]
    victim = rng.randrange(n_clusters)
    clusters[victim] = ClusterSpec(victim, empty)
    machine = Machine(
        clusters=tuple(clusters),
        interconnect=BusInterconnect(bus_count=2),
        name="fuzz-empty-cluster",
    )
    # UnitMix refuses a mix without units.
    object.__setattr__(empty, "gp_width", 0)
    return _loop(rng), machine


def _missing_unit_class(rng):
    ddg = _loop(rng)
    node = ddg.add_node(Opcode.FP_MULT)
    ddg.add_edge(rng.randrange(node), node)
    machine = bused_machine(rng.randint(2, 4), fs_units(1, 2, 0), buses=2,
                            ports=1, name="fuzz-no-float")
    return ddg, machine


def _unroutable_pair(rng):
    n_clusters = rng.randint(3, 5)
    island = rng.randrange(n_clusters)
    rest = [c for c in range(n_clusters) if c != island]
    machine = Machine(
        clusters=tuple(
            ClusterSpec(i, gp_units(2)) for i in range(n_clusters)
        ),
        interconnect=PointToPointInterconnect(list(zip(rest, rest[1:]))),
        name="fuzz-islanded",
    )
    return _loop(rng), machine


def _poolless_fabric(rng):
    machine = Machine(
        clusters=_gp_machine(rng, "").clusters,
        interconnect=PoollessBus(bus_count=2),
        name="fuzz-poolless",
    )
    return _loop(rng), machine


def _zero_capacity_channel(rng):
    bus = BusInterconnect(bus_count=2)
    # BusInterconnect refuses zero buses.
    object.__setattr__(bus, "bus_count", 0)
    machine = Machine(
        clusters=_gp_machine(rng, "").clusters, interconnect=bus,
        name="fuzz-busless",
    )
    return _loop(rng), machine


#: Validator code -> mutation ``rng -> (loop, machine)``.
MUTATIONS = {
    "DDG101": _dangling_edge,
    "DDG103": _zero_distance_cycle,
    "DDG107": _negative_distance,
    "DDG108": _negative_latency,
    "DDG109": _input_copy,
    "MACH201": _empty_cluster,
    "MACH202": _missing_unit_class,
    "MACH203": _unroutable_pair,
    "MACH205": _poolless_fabric,
    "MACH206": _zero_capacity_channel,
}

ROWS = [(code, seed) for code in MUTATIONS for seed in SEEDS]


def mutant(code, seed):
    """A fresh (loop, machine) pair carrying ``code``'s defect."""
    return MUTATIONS[code](random.Random(f"{code}-{seed}"))


@pytest.fixture(scope="module")
def pool():
    workers = WorkerPool(workers=1)
    workers.warm_up()
    yield workers
    workers.close()


@pytest.mark.parametrize("code, seed", ROWS)
def test_compile_loop_rejects_before_attempt_1(code, seed):
    ddg, machine = mutant(code, seed)
    with obs.tracing() as trace:
        with pytest.raises(ValidationError) as excinfo:
            compile_loop(ddg, machine)
    assert excinfo.value.code == code
    assert str(excinfo.value).startswith(f"{code} ")
    assert trace.counter("driver.attempts") == 0
    copied = pickle.loads(pickle.dumps(excinfo.value))
    assert (copied.code, str(copied)) == (code, str(excinfo.value))


@pytest.mark.parametrize("code, seed", ROWS)
def test_run_experiment_fails_the_loop(code, seed):
    ddg, machine = mutant(code, seed)
    with obs.tracing() as trace:
        result = run_experiment([ddg], machine)
    [outcome] = result.outcomes
    assert outcome.status == "failed"
    assert code in outcome.error
    assert trace.counter("driver.attempts") == 0
    with pytest.raises(ExperimentError, match=code):
        run_experiment([ddg], machine, strict=True)


def test_front_door_fails_each_request(pool):
    mutants = [mutant(code, seed) for code, seed in ROWS]

    async def main():
        async with CompileService(pool=pool) as service:
            return await asyncio.gather(*(
                service.submit(CompileRequest(loop=ddg, machine=machine))
                for ddg, machine in mutants
            ))

    replies = asyncio.run(main())
    for (code, seed), reply in zip(ROWS, replies):
        assert reply.status == "failed", (code, seed, reply)
        assert code in reply.error, (code, seed, reply)
        assert "KeyError" not in reply.error


@pytest.mark.parametrize("code", ["DDG103", "DDG109"])
def test_repro_compile_prints_one_line(code, tmp_path):
    ddg, _ = mutant(code, 0)
    path = tmp_path / f"{code}.loop"
    path.write_text(format_loop(ddg))
    run = subprocess.run(
        [sys.executable, "-m", "repro", "compile", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith(f"{path}: {code} ")
    assert run.stderr.count("\n") == 1


class TestSearchesThatNeverStart:
    """Inputs that once searched their whole II range, or compiled."""

    def test_islanded_machine_makes_no_attempt(self):
        # Cluster 1 (the only float unit) is off the fabric.
        machine = Machine(
            clusters=(
                ClusterSpec(0, fs_units(1, 1, 0)),
                ClusterSpec(1, fs_units(0, 0, 1)),
                ClusterSpec(2, fs_units(0, 2, 0)),
            ),
            interconnect=PointToPointInterconnect(links=[(0, 2)]),
            name="islanded-fs",
        )
        codes = []
        with obs.tracing() as trace:
            for ddg in paper_suite(60, 1998):
                with pytest.raises(ValidationError) as excinfo:
                    compile_loop(ddg, machine)
                codes.append(excinfo.value.code)
        assert codes == ["MACH203"] * 60
        assert trace.counter("driver.attempts") == 0

    @pytest.mark.parametrize("opcode, latency, code", [
        (Opcode.ALU, -1, "DDG108"),
        (Opcode.COPY, None, "DDG109"),
    ])
    def test_defective_node_is_rejected(self, opcode, latency, code):
        ddg = paper_suite(1, 1998)[0]
        node = ddg.add_node(opcode, latency=latency)
        ddg.add_edge(0, node)
        with pytest.raises(ValidationError) as excinfo:
            compile_loop(ddg, bused_machine(2, gp_units(4), 2, 1))
        assert excinfo.value.code == code
