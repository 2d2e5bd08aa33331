"""Failure injection: malformed inputs and impossible machines must fail
loudly and cleanly, never hang or silently succeed."""

import pytest

from repro import obs
from repro.core import CompilationError, assign_clusters, compile_loop
from repro.ddg import Ddg, Opcode, ValidationError, build_ddg
from repro.machine import (
    ClusterSpec,
    Machine,
    PointToPointInterconnect,
    fs_units,
    unified_fs,
)
from repro.machine.interconnect import BusInterconnect


class TestMalformedGraphs:
    def test_zero_distance_cycle_raises(self, two_gp):
        graph = build_ddg(
            ops=[("a", Opcode.ALU), ("b", Opcode.ALU)],
            deps=[("a", "b", 0), ("b", "a", 0)],
        )
        with pytest.raises(ValueError):
            compile_loop(graph, two_gp)

    def test_empty_graph_raises(self, two_gp):
        with pytest.raises(ValueError):
            compile_loop(Ddg(), two_gp)


class TestImpossibleMachines:
    def test_missing_unit_class_raises(self):
        # A machine with no floating point units cannot run FP loops.
        machine = unified_fs(memory=1, integer=2, floating=0)
        graph = build_ddg(ops=[("f", Opcode.FP_ADD)], deps=[])
        with pytest.raises((ValueError, CompilationError)):
            compile_loop(graph, machine)

    def test_clustered_machine_missing_class_everywhere(self):
        clusters = tuple(
            ClusterSpec(index=i, units=fs_units(1, 2, 0),
                        read_ports=1, write_ports=1)
            for i in range(2)
        )
        machine = Machine(
            clusters=clusters,
            interconnect=BusInterconnect(bus_count=2),
            name="no-fp",
        )
        graph = build_ddg(
            ops=[("ld", Opcode.LOAD), ("f", Opcode.FP_ADD)],
            deps=[("ld", "f", 0)],
        )
        with pytest.raises((ValueError, CompilationError)):
            compile_loop(graph, machine)

    def test_partitioned_fabric_fails_cleanly(self):
        """Clusters 0-1 and 2-3 are disconnected; a value that must cross
        the partition can never be routed, so the machine is rejected
        (MACH203) before the first II attempt."""
        clusters = tuple(
            ClusterSpec(index=i, units=fs_units(1, 1, 1),
                        read_ports=2, write_ports=2)
            for i in range(4)
        )
        machine = Machine(
            clusters=clusters,
            interconnect=PointToPointInterconnect([(0, 1), (2, 3)]),
            name="split-brain",
        )
        # Enough FP ops that they cannot all sit in one half at MII.
        graph = Ddg()
        producer = graph.add_node(Opcode.FP_ADD)
        for _ in range(11):
            node = graph.add_node(Opcode.FP_ADD)
            graph.add_edge(producer, node, distance=0)
        # Never a search, a hang or an internal routing exception.
        with obs.tracing() as trace:
            with pytest.raises(ValidationError) as excinfo:
                compile_loop(graph, machine)
        assert excinfo.value.code == "MACH203"
        assert trace.counter("driver.attempts") == 0


class TestAssignmentEdgeCases:
    def test_one_wide_cluster_machine(self):
        from repro.machine import bused_machine, gp_units
        machine = bused_machine(2, gp_units(1), buses=1, ports=1)
        graph = build_ddg(
            ops=[("a", Opcode.ALU), ("b", Opcode.ALU), ("c", Opcode.ALU)],
            deps=[("a", "b", 0), ("b", "c", 0)],
        )
        result = compile_loop(graph, machine, verify=True)
        assert result.ii >= 2  # 3 ops on 2 single-issue clusters

    def test_assignment_at_absurdly_large_ii_succeeds(self, two_gp,
                                                      intro_example):
        annotated = assign_clusters(intro_example, two_gp, ii=200)
        assert annotated is not None
        assert annotated.copy_count == 0  # everything fits one cluster

    def test_assignment_at_ii_one_often_fails_but_cleanly(self, two_gp):
        graph = Ddg()
        for _ in range(20):
            graph.add_node(Opcode.ALU)
        result = assign_clusters(graph, two_gp, ii=1)
        assert result is None  # 20 ops > 8 slots: impossible, no crash

    def test_min_ii_larger_than_needed(self, chain3, two_gp):
        result = compile_loop(chain3, two_gp, min_ii=7, verify=True)
        assert result.ii >= 7
