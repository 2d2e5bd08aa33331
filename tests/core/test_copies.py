"""Copy planning and routing state."""

import pytest

from repro.core import RoutingState, plan_copies
from repro.core.copies import CopyRoutingError
from repro.ddg import Ddg, Opcode
from repro.machine import (
    ClusterSpec,
    Machine,
    PointToPointInterconnect,
    gp_units,
)
from repro.mrt import PoolOverflowError, ResourcePools


class TestPlanCopies:
    def test_no_needed_clusters_empty_plan(self, two_gp):
        plan = plan_copies(two_gp, producer=0, producer_cluster=0,
                           needed_clusters=set())
        assert plan.copy_count == 0
        assert plan.resources == ()

    def test_home_cluster_filtered_out(self, two_gp):
        plan = plan_copies(two_gp, 0, 0, {0})
        assert plan.copy_count == 0

    def test_bus_single_target(self, two_gp):
        plan = plan_copies(two_gp, 0, 0, {1})
        assert plan.copy_count == 1
        assert plan.specs[0].targets == (1,)
        assert "bus" in plan.resources

    def test_bus_broadcast_shares_one_copy(self, four_gp):
        plan = plan_copies(four_gp, 0, 0, {1, 2, 3})
        assert plan.copy_count == 1
        assert plan.specs[0].targets == (1, 2, 3)
        assert list(plan.resources).count("bus") == 1
        assert list(plan.resources).count(("rd", 0)) == 1

    def test_broadcast_sharing_disabled(self, four_gp):
        plan = plan_copies(four_gp, 0, 0, {1, 2, 3}, share_broadcast=False)
        assert plan.copy_count == 3
        assert list(plan.resources).count("bus") == 3

    def test_grid_neighbor_single_hop(self, grid):
        plan = plan_copies(grid, 0, 0, {1})
        assert plan.copy_count == 1
        assert ("link", 0, 1) in plan.resources

    def test_grid_diagonal_two_hops(self, grid):
        plan = plan_copies(grid, 0, 0, {3})
        assert plan.copy_count == 2
        # First hop leaves cluster 0, second arrives at cluster 3.
        assert plan.specs[0].src_cluster == 0
        assert plan.specs[1].targets == (3,)

    def test_grid_union_shares_hops(self, grid):
        # Reaching 1 and 3 via 0->1->3 shares the first hop.
        plan = plan_copies(grid, 0, 0, {1, 3})
        assert plan.copy_count == 2

    def test_grid_hop_order_is_dependence_order(self, grid):
        plan = plan_copies(grid, 0, 0, {1, 2, 3})
        reached = {0}
        for spec in plan.specs:
            assert spec.src_cluster in reached
            reached.update(spec.targets)
        assert {1, 2, 3} <= reached


@pytest.fixture
def routing(two_gp):
    """A producer-consumer pair on the 2-cluster GP machine at II 2."""
    graph = Ddg()
    producer = graph.add_node(Opcode.ALU, name="p")
    consumer = graph.add_node(Opcode.ALU, name="c")
    other = graph.add_node(Opcode.ALU, name="o")
    graph.add_edge(producer, consumer, distance=0)
    graph.add_edge(producer, other, distance=0)
    pools = ResourcePools(two_gp, ii=2)
    return RoutingState(graph, two_gp, pools), graph, pools


class TestRoutingState:
    def test_same_cluster_needs_no_copies(self, routing):
        state, graph, pools = routing
        state.set_cluster(0, 0)
        state.set_cluster(1, 0)
        assert state.total_copies() == 0
        assert pools.used("bus") == 0

    def test_cross_cluster_consumer_triggers_copy(self, routing):
        state, graph, pools = routing
        state.set_cluster(0, 0)
        state.set_cluster(1, 1)
        assert state.total_copies() == 1
        assert state.required_copies(0) == 1
        assert pools.used("bus") == 1
        assert pools.used(("rd", 0)) == 1
        assert pools.used(("wr", 1)) == 1

    def test_broadcast_extends_without_second_copy(self, routing):
        state, graph, pools = routing
        state.set_cluster(0, 0)
        state.set_cluster(1, 1)
        state.set_cluster(2, 1)
        assert state.total_copies() == 1

    def test_unassign_releases_copy_resources(self, routing):
        state, graph, pools = routing
        state.set_cluster(0, 0)
        state.set_cluster(1, 1)
        state.unassign_unplanned(1)
        for producer in state.affected_producers(1):
            state.replan(producer)
        assert state.total_copies() == 0
        assert pools.used("bus") == 0

    def test_unassigned_value_consumers(self, routing):
        state, graph, pools = routing
        assert state.unassigned_value_consumers(0) == 2
        state.set_cluster(1, 0)
        assert state.unassigned_value_consumers(0) == 1

    def test_needed_clusters(self, routing):
        state, graph, pools = routing
        state.set_cluster(0, 0)
        state.set_cluster(1, 1)
        assert state.needed_clusters(0) == {1}

    def test_snapshot_restore(self, routing):
        state, graph, pools = routing
        state.set_cluster(0, 0)
        snap = state.snapshot()
        pools_snap = pools.checkpoint()
        state.set_cluster(1, 1)
        state.restore(snap)
        pools.restore(pools_snap)
        assert state.total_copies() == 0
        assert 1 not in state.cluster_of

    def test_overflow_when_bus_exhausted(self, two_gp):
        # II 1: bus capacity 2, rd port capacity 1 per cluster.
        graph = Ddg()
        p1 = graph.add_node(Opcode.ALU)
        c1 = graph.add_node(Opcode.ALU)
        p2 = graph.add_node(Opcode.ALU)
        c2 = graph.add_node(Opcode.ALU)
        graph.add_edge(p1, c1, distance=0)
        graph.add_edge(p2, c2, distance=0)
        pools = ResourcePools(two_gp, ii=1)
        state = RoutingState(graph, two_gp, pools)
        state.set_cluster(p1, 0)
        state.set_cluster(c1, 1)  # consumes the single rd slot on C0
        state.set_cluster(p2, 0)
        with pytest.raises(PoolOverflowError):
            state.set_cluster(c2, 1)

    def test_double_assignment_rejected(self, routing):
        state, graph, pools = routing
        state.set_cluster(0, 0)
        with pytest.raises(ValueError):
            state.set_cluster(0, 1)

    def test_memory_edges_never_copy(self, two_gp):
        graph = Ddg()
        store = graph.add_node(Opcode.STORE)
        load = graph.add_node(Opcode.LOAD)
        graph.add_edge(store, load, distance=1)
        pools = ResourcePools(two_gp, ii=2)
        state = RoutingState(graph, two_gp, pools)
        state.set_cluster(store, 0)
        state.set_cluster(load, 1)
        assert state.total_copies() == 0

    def test_self_loop_needs_no_copy(self, accumulator, two_gp):
        pools = ResourcePools(two_gp, ii=2)
        state = RoutingState(accumulator, two_gp, pools)
        state.set_cluster(accumulator.node_ids[1], 0)
        assert state.total_copies() == 0


class TestReplanMisfits:
    def _two_pairs(self, machine, ii):
        graph = Ddg()
        p1, c1, p2, c2 = (graph.add_node(Opcode.ALU) for _ in range(4))
        graph.add_edge(p1, c1, distance=0)
        graph.add_edge(p2, c2, distance=0)
        pools = ResourcePools(machine, ii=ii)
        return RoutingState(graph, machine, pools), pools

    def test_replan_returns_false_and_holds_nothing(self, two_gp):
        # II 1: C0's single read-port slot goes to the first pair's copy.
        state, pools = self._two_pairs(two_gp, ii=1)
        state.set_cluster(0, 0)
        state.set_cluster(1, 1)
        state.assign_unplanned(2, 0)
        state.assign_unplanned(3, 1)
        before = pools.checkpoint()
        assert state.replan(2) is False
        assert pools.checkpoint() == before
        assert state.required_copies(2) == 0
        assert state.total_copies() == 1

    def test_templates_are_shared_per_machine(self, two_gp):
        first, _ = self._two_pairs(two_gp, ii=2)
        first.set_cluster(0, 0)
        first.set_cluster(1, 1)
        second, _ = self._two_pairs(two_gp, ii=3)
        second.set_cluster(2, 0)
        second.set_cluster(3, 1)
        assert first._plans[0] is second._plans[2]

    def test_unroutable_value(self):
        # Links 0-1 and 2-3 only: cluster 2 is unreachable from 0.
        machine = Machine(
            clusters=tuple(
                ClusterSpec(index=i, units=gp_units(2)) for i in range(4)
            ),
            interconnect=PointToPointInterconnect([(0, 1), (2, 3)]),
        )
        state, pools = self._two_pairs(machine, ii=2)
        state.set_cluster(0, 0)
        with pytest.raises(CopyRoutingError):
            state.set_cluster(1, 2)
        assert state.replan(0) is False
        assert pools.checkpoint() == ResourcePools(machine, ii=2).checkpoint()
