"""Seeded defects: one corrupted input per registered lint rule.

Each row plants one defect, lints the artifact, and asserts the run
reports *exactly* that row's code at its default severity, with a
nonzero exit for error-severity codes -- the acceptance contract for
the diagnostic catalog.  Where a constructor rejects a defect, the row
mutates the built object instead: lint must handle graphs and machines
assembled outside the constructors.  Defects in a compiled loop (annotated
graph, schedule, register allocation) are certify's:
``tests/certify/test_defect_matrix.py`` seeds those.
"""

import pytest

from repro.ddg import Ddg, Opcode
from repro.ddg.graph import Edge
from repro.lint import LintConfig, LintTarget, all_rules, lint_target
from repro.lint.registry import RULES
from repro.machine import (
    ClusterSpec,
    Machine,
    PointToPointInterconnect,
    fs_units,
    gp_units,
    two_cluster_gp,
)
from repro.machine.interconnect import BusInterconnect

#: code -> (factory of the defective target, codes the defect implies).
SEEDS = {}


def seed(code, implies=()):
    """Register the factory of ``code``'s defective lint target.

    ``implies`` names codes the defect cannot avoid tripping too: a
    latency of 0 or below differs from every Table 2 latency, so it is
    also a DDG106 finding.  The row disables those.
    """
    def register(make):
        SEEDS[code] = (make, frozenset(implies))
        return make

    return register


def _graph_target(graph):
    return LintTarget(name=graph.name, ddg=graph)


def _machine_target(machine):
    return LintTarget(name=machine.name, machine=machine)


def _pipeline(name, alu_latency=None):
    """ld -> alu -> st, optionally overriding the ALU's latency."""
    graph = Ddg(name=name)
    ld = graph.add_node(Opcode.LOAD, name="ld")
    alu = graph.add_node(Opcode.ALU, name="alu", latency=alu_latency)
    st = graph.add_node(Opcode.STORE, name="st")
    graph.add_edge(ld, alu)
    graph.add_edge(alu, st)
    return graph


@seed("DDG101")
def _dangling_edge():
    graph = _pipeline("dangling")
    # add_edge refuses unknown endpoints.
    graph._edges.append(Edge(src=0, dst=99))
    return _graph_target(graph)


@seed("DDG102")
def _duplicate_edge():
    graph = _pipeline("duplicate")
    graph.add_edge(0, 1)
    return _graph_target(graph)


@seed("DDG103")
def _zero_distance_cycle():
    graph = Ddg(name="combinational")
    a = graph.add_node(Opcode.ALU, name="a")
    b = graph.add_node(Opcode.ALU, name="b")
    graph.add_edge(a, b, distance=0)
    graph.add_edge(b, a, distance=0)
    return _graph_target(graph)


@seed("DDG104", implies=("DDG106",))
def _zero_latency_recurrence():
    graph = Ddg(name="free-recurrence")
    a = graph.add_node(Opcode.ALU, name="a", latency=0)
    b = graph.add_node(Opcode.ALU, name="b", latency=0)
    graph.add_edge(a, b, distance=0)
    graph.add_edge(b, a, distance=1)
    return _graph_target(graph)


@seed("DDG105")
def _isolated_node():
    graph = _pipeline("island")
    graph.add_node(Opcode.ALU, name="idle")
    return _graph_target(graph)


@seed("DDG106")
def _latency_override():
    return _graph_target(_pipeline("slow-alu", alu_latency=5))


@seed("DDG107")
def _negative_distance():
    graph = _pipeline("backwards")
    # Edge refuses a negative distance.
    object.__setattr__(graph.out_edges(1)[0], "distance", -1)
    return _graph_target(graph)


@seed("DDG108", implies=("DDG106",))
def _negative_latency():
    return _graph_target(_pipeline("time-travel", alu_latency=-1))


@seed("DDG109")
def _input_copy():
    graph = _pipeline("input-copy")
    # Copies are the assigner's to insert; the builders accept one.
    mov = graph.add_node(Opcode.COPY, name="mov")
    graph.add_edge(1, mov)
    return _graph_target(graph)


@seed("MACH201")
def _empty_cluster():
    units = gp_units(4)
    machine = Machine(
        clusters=(ClusterSpec(0, gp_units(4)), ClusterSpec(1, units)),
        interconnect=BusInterconnect(bus_count=1),
        name="empty-cluster",
    )
    # UnitMix refuses a cluster without units.
    object.__setattr__(units, "gp_width", 0)
    return _machine_target(machine)


@seed("MACH202")
def _no_float_unit():
    machine = Machine(
        clusters=(
            ClusterSpec(0, fs_units(1, 1, 0)),
            ClusterSpec(1, fs_units(1, 1, 0)),
        ),
        interconnect=BusInterconnect(bus_count=1),
        name="no-float",
    )
    return _machine_target(machine)


@seed("MACH203")
def _islanded_cluster():
    # The float-only cluster 1 is off the fabric: the only link
    # connects the memory cluster 0 to the integer cluster 2.
    machine = Machine(
        clusters=(
            ClusterSpec(0, fs_units(1, 1, 0)),
            ClusterSpec(1, fs_units(0, 0, 1)),
            ClusterSpec(2, fs_units(0, 2, 0)),
        ),
        interconnect=PointToPointInterconnect(links=[(0, 2)]),
        name="islanded-fs",
    )
    return _machine_target(machine)


@seed("MACH204")
def _portless_cluster():
    machine = Machine(
        clusters=(
            ClusterSpec(0, gp_units(4)),
            ClusterSpec(1, gp_units(4), read_ports=0),
        ),
        interconnect=BusInterconnect(bus_count=1),
        name="mute-cluster",
    )
    return _machine_target(machine)


@seed("MACH205")
def _poolless_bus():
    class PoollessBus(BusInterconnect):
        def channel_resources(self):
            return {}

    machine = Machine(
        clusters=two_cluster_gp().clusters,
        interconnect=PoollessBus(bus_count=1),
        name="poolless-bus",
    )
    return _machine_target(machine)


@seed("MACH206")
def _zero_capacity_channel():
    class ZeroCapacityBus(BusInterconnect):
        def channel_resources(self):
            return {"bus": 0}

    machine = Machine(
        clusters=two_cluster_gp().clusters,
        interconnect=ZeroCapacityBus(bus_count=1),
        name="broken-bus",
    )
    return _machine_target(machine)


class TestSeededDefects:
    def test_every_rule_has_a_seed(self):
        assert sorted(SEEDS) == [rule.code for rule in all_rules()]

    @pytest.mark.parametrize("code", sorted(SEEDS))
    def test_exactly_its_code_fires(self, code):
        make, implied = SEEDS[code]
        report = lint_target(make(), LintConfig(disable=implied))
        assert report.codes() == [code], report.diagnostics
        severity = RULES[code].default_severity
        assert {d.severity for d in report.diagnostics} == {severity}
        assert report.exit_code == (1 if severity == "error" else 0)
