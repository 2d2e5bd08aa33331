"""Property-based tests on assignment-state invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RoutingState, assign_clusters
from repro.core.copies import plan_copies
from repro.machine import (
    four_cluster_gp,
    four_cluster_grid,
    two_cluster_gp,
)
from repro.mrt import PoolOverflowError, ResourcePools
from repro.workloads import GeneratorProfile, generate_loop

MACHINES = [two_cluster_gp(), four_cluster_gp(), four_cluster_grid()]


@st.composite
def routing_scenario(draw):
    """A random graph + machine + a random assign/unassign action list."""
    seed = draw(st.integers(min_value=0, max_value=50_000))
    machine = draw(st.sampled_from(MACHINES))
    ii = draw(st.integers(min_value=2, max_value=8))
    rng = random.Random(seed)
    ddg = generate_loop(rng, GeneratorProfile(), n_nodes=
                        draw(st.integers(min_value=3, max_value=18)))
    n_actions = draw(st.integers(min_value=1, max_value=40))
    actions = [
        (
            draw(st.sampled_from(["assign", "remove"])),
            draw(st.integers(min_value=0, max_value=len(ddg) - 1)),
            draw(st.integers(min_value=0, max_value=machine.n_clusters - 1)),
        )
        for _ in range(n_actions)
    ]
    return ddg, machine, ii, actions


def _expected_copy_reservations(state: RoutingState):
    """Recompute from scratch what the pools should hold for copies."""
    expected = {}
    for producer in state.ddg.node_ids:
        if producer not in state.cluster_of:
            continue
        if not state.ddg.node(producer).produces_value:
            continue
        plan = plan_copies(
            state.machine,
            producer,
            state.cluster_of[producer],
            state.needed_clusters(producer),
            share_broadcast=state.share_broadcast,
        )
        for key in plan.resources:
            expected[key] = expected.get(key, 0) + 1
    return expected


class TestRoutingStateInvariants:
    @given(routing_scenario())
    @settings(max_examples=60, deadline=None)
    def test_pool_usage_matches_recomputed_plans(self, scenario):
        """After any action sequence, reserved copy resources equal a
        from-scratch recomputation of every producer's plan."""
        ddg, machine, ii, actions = scenario
        pools = ResourcePools(machine, ii)
        state = RoutingState(ddg, machine, pools)
        for kind, node_id, cluster in actions:
            assigned = node_id in state.cluster_of
            try:
                if kind == "assign" and not assigned:
                    state.set_cluster(node_id, cluster)
                elif kind == "remove" and assigned:
                    state.unassign_unplanned(node_id)
                    for producer in state.affected_producers(node_id):
                        state.replan(producer)
            except PoolOverflowError:
                # Overflow mid-update leaves state inconsistent by
                # contract; a real caller rolls back — do the same.
                return
        actual = {
            key: used
            for key, used in zip(pools.table.keys, pools._used)
            if used > 0
        }
        assert actual == _expected_copy_reservations(state)
        # The kept UnassignedSuccessors counts follow every action.
        for producer in ddg.node_ids:
            assert state.unassigned_value_consumers(producer) == sum(
                1 for consumer in state.value_consumers(producer)
                if consumer not in state.cluster_of
            )


class TestAssignmentPostconditions:
    @given(
        st.integers(min_value=0, max_value=50_000),
        st.sampled_from(MACHINES),
    )
    @settings(max_examples=40, deadline=None)
    def test_successful_assignment_is_schedulable_resource_wise(
        self, seed, machine
    ):
        """Any annotated graph the assigner returns fits the counting
        pools it was built against: per-resource demand <= capacity*II."""
        rng = random.Random(seed)
        ddg = generate_loop(rng, GeneratorProfile())
        from repro.ddg import mii
        ii = mii(ddg, machine.unified_equivalent()) + 1
        annotated = assign_clusters(ddg, machine, ii)
        if annotated is None:
            return
        demand = {}
        for node_id in annotated.ddg.node_ids:
            for key in annotated.resources_of(node_id):
                demand[key] = demand.get(key, 0) + 1
        capacities = machine.resource_capacities()
        for key, used in demand.items():
            assert used <= capacities[key] * ii, key

    @given(
        st.integers(min_value=0, max_value=50_000),
        st.sampled_from(MACHINES),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_node_assigned_exactly_one_cluster(self, seed, machine):
        rng = random.Random(seed)
        ddg = generate_loop(rng, GeneratorProfile())
        from repro.ddg import mii
        ii = mii(ddg, machine.unified_equivalent()) + 2
        annotated = assign_clusters(ddg, machine, ii)
        if annotated is None:
            return
        for node_id in annotated.ddg.node_ids:
            cluster = annotated.cluster_of[node_id]
            assert 0 <= cluster < machine.n_clusters
