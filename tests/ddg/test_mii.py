"""RecMII / ResMII / MII computation."""

import pytest

from repro.ddg import Ddg, Opcode, build_ddg, mii, rec_mii, res_mii
from repro.ddg.mii import op_demand, rec_mii_of_subgraph
from repro.ddg.opcodes import FuClass
from repro.machine import two_cluster_fs, unified_fs, unified_gp


class TestZeroLatencyCycles:
    """Regression: a cycle whose ops all have latency 0 has weight 0 at
    every candidate II, so the positive-cycle probes cannot see it.  A
    zero-distance one used to be silently reported as acyclic instead
    of rejected as unschedulable."""

    @staticmethod
    def _cycle(distance_back):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU, latency=0)
        b = graph.add_node(Opcode.ALU, latency=0)
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=distance_back)
        return graph

    def test_zero_latency_zero_distance_cycle_rejected(self):
        with pytest.raises(ValueError, match="zero total distance"):
            rec_mii(self._cycle(distance_back=0))

    def test_zero_latency_carried_cycle_imposes_no_bound(self):
        # With distance >= 1 the recurrence bound is ceil(0 / 1) = 0:
        # legitimate, and explicitly handled rather than accidental.
        assert rec_mii(self._cycle(distance_back=1)) == 0

    def test_zero_latency_cycle_beside_a_real_recurrence(self):
        graph = self._cycle(distance_back=1)
        c = graph.add_node(Opcode.FP_MULT)  # latency 3
        d = graph.add_node(Opcode.FP_ADD)   # latency 1
        graph.add_edge(c, d, distance=0)
        graph.add_edge(d, c, distance=1)
        # The positive-latency cycle still dominates: (3 + 1) / 1 = 4.
        assert rec_mii(graph) == 4

    def test_zero_latency_node_on_positive_cycle_still_counted(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU, latency=0)
        b = graph.add_node(Opcode.FP_MULT)  # latency 3
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=1)
        assert rec_mii(graph) == 3

    def test_mixed_latency_zero_distance_cycle_still_rejected(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU, latency=0)
        b = graph.add_node(Opcode.ALU)  # latency 1
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=0)
        with pytest.raises(ValueError, match="zero total distance"):
            rec_mii(graph)


class TestRecMii:
    def test_paper_intro_example(self, intro_example):
        # RecMII = (1 + 2 + 1) / 1 = 4 per the paper's Section 3.
        assert rec_mii(intro_example) == 4

    def test_acyclic_graph_has_zero_rec_mii(self, chain3):
        assert rec_mii(chain3) == 0

    def test_self_loop_accumulator(self, accumulator):
        # FP add latency 1 over distance 1.
        assert rec_mii(accumulator) == 1

    def test_distance_two_halves_the_bound(self):
        graph = Ddg()
        a = graph.add_node(Opcode.FP_MULT)  # latency 3
        b = graph.add_node(Opcode.FP_ADD)  # latency 1
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=2)
        # (3 + 1) / 2 = 2
        assert rec_mii(graph) == 2

    def test_ceiling_of_fractional_ratio(self):
        graph = Ddg()
        a = graph.add_node(Opcode.FP_MULT)  # 3
        b = graph.add_node(Opcode.LOAD)  # 2
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=2)
        # (3 + 2) / 2 = 2.5 -> 3
        assert rec_mii(graph) == 3

    def test_max_over_multiple_cycles(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        b = graph.add_node(Opcode.ALU)
        c = graph.add_node(Opcode.FP_DIV)  # latency 9
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=1)  # cycle of latency 2
        graph.add_edge(c, c, distance=1)  # cycle of latency 9
        assert rec_mii(graph) == 9

    def test_zero_distance_cycle_rejected(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        b = graph.add_node(Opcode.ALU)
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=0)
        with pytest.raises(ValueError):
            rec_mii(graph)

    def test_subgraph_restriction_ignores_outside_cycles(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        b = graph.add_node(Opcode.FP_DIV)
        graph.add_edge(a, a, distance=1)
        graph.add_edge(b, b, distance=1)
        assert rec_mii_of_subgraph(graph, {a}) == 1
        assert rec_mii_of_subgraph(graph, {b}) == 9

    def test_empty_subgraph(self, chain3):
        assert rec_mii_of_subgraph(chain3, set()) == 0


class TestResMii:
    def test_gp_width_division(self, intro_example):
        # 6 ops on an 8-wide GP machine: ceil(6/8) = 1.
        assert res_mii(intro_example, unified_gp(8)) == 1
        # On a 2-wide machine: ceil(6/2) = 3 (the paper's example).
        assert res_mii(intro_example, unified_gp(2)) == 3

    def test_fs_per_class_bound(self):
        graph = build_ddg(
            ops=[(f"l{i}", Opcode.LOAD) for i in range(5)]
            + [("a", Opcode.FP_ADD)],
            deps=[("l0", "a", 0)],
        )
        machine = unified_fs(memory=1, integer=2, floating=1)
        # 5 memory ops on 1 memory unit dominate: ResMII = 5.
        assert res_mii(graph, machine) == 5

    def test_copies_do_not_consume_issue_slots(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        for _ in range(10):
            cp = graph.add_node(Opcode.COPY)
            graph.add_edge(a, cp, distance=0)
        assert res_mii(graph, unified_gp(1)) == 1

    def test_fs_machine_missing_class_raises(self):
        graph = build_ddg(ops=[("f", Opcode.FP_ADD)], deps=[])
        machine = unified_fs(memory=1, integer=1, floating=0)
        with pytest.raises(ValueError):
            res_mii(graph, machine)

    def test_op_demand_groups_by_class(self, chain3):
        demand = op_demand(chain3)
        assert demand[FuClass.MEMORY] == 2  # load + store
        assert demand[FuClass.FLOAT] == 1

    def test_clustered_machine_capacity_sums_clusters(self, intro_example):
        machine = two_cluster_fs()
        # 2 clusters x 2 integer units = 4; 5 int ops + 1 load.
        assert res_mii(intro_example, machine) == 2


class TestMii:
    def test_mii_is_max_of_bounds(self, intro_example):
        # RecMII 4 dominates ResMII 3 on a 2-wide machine (paper: MII 4).
        assert mii(intro_example, unified_gp(2)) == 4

    def test_mii_resource_dominated(self, chain3):
        machine = unified_fs(memory=1, integer=1, floating=1)
        # 2 memory ops / 1 memory unit = 2 > RecMII 0.
        assert mii(chain3, machine) == 2

    def test_mii_at_least_one(self):
        graph = build_ddg(ops=[("a", Opcode.ALU)], deps=[])
        assert mii(graph, unified_gp(16)) == 1


class TestClusteredMachineMii:
    """``compile_loop`` takes the unified machine's MII on the clustered
    machine itself: ResMII reads only machine-wide issue capacities,
    which sum over clusters exactly as the unified mix does."""

    def test_equals_unified_equivalent_mii(self):
        from repro.machine import STANDARD_PRESETS, heterogeneous_gp
        from repro.workloads import paper_suite

        machines = [factory() for factory in STANDARD_PRESETS.values()]
        machines.append(heterogeneous_gp([6, 2], buses=2, ports=1))
        loops = paper_suite(1327, 1998)  # the suite and the kernels
        for machine in machines:
            unified = machine.unified_equivalent()
            mismatches = [
                ddg.name for ddg in loops
                if mii(ddg, machine) != mii(ddg, unified)
            ]
            assert mismatches == [], machine.name
