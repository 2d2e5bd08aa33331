"""White-box tests of the assigner's internals: rule (A) history,
forced placement, conflict counting, eviction cascades, the cycle stop
with the premise it rests on, and the read-only probes against the
apply-measure-roll-back transaction they replace."""

import copy
import weakref

import pytest

from repro.core.assignment import _Assigner, assign_clusters
from repro.core.copies import RoutingState
from repro.core.driver import compile_loop
from repro.core.prediction import upper_bound
from repro.core.selection import CandidateInfo
from repro.core.variants import (
    HEURISTIC_ITERATIVE,
    NO_BROADCAST_SHARING,
    NO_PREDICTION,
    SIMPLE_ITERATIVE,
)
from repro.ddg import Ddg, Opcode
from repro.ddg.opcodes import fu_class_of
from repro.machine import (
    PAPER_GRID_MIX,
    four_cluster_gp,
    four_cluster_grid,
    heterogeneous_gp,
    ring_machine,
    two_cluster_gp,
)
from repro.mrt.pool import ResourcePools
from repro.obs import tracing
from repro.workloads import build_kernel, paper_suite


def _assigner(ddg, machine, ii):
    return _Assigner(ddg, machine, ii, HEURISTIC_ITERATIVE)


def _counts(pools):
    """A copy of the pools' usage counts, in resource-table order."""
    return list(pools._used)


@pytest.fixture
def pair_graph():
    graph = Ddg()
    producer = graph.add_node(Opcode.ALU, name="p")
    consumer = graph.add_node(Opcode.ALU, name="c")
    graph.add_edge(producer, consumer, distance=0)
    return graph


class TestRuleAHistory:
    # The history is a bitmask over cluster indices: bit c set means the
    # node was placed on cluster c since the history was last cleared.
    def test_history_records_assignments(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        assigner.commit(0, 1)
        assert assigner.previously_on[0] == 1 << 1

    def test_history_clears_when_full(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        assigner._record_history(0, 0)
        assert assigner.previously_on[0] == 1 << 0
        assigner._record_history(0, 1)
        # Covered both clusters: cleared down to the latest entry.
        assert assigner.previously_on[0] == 1 << 1

    def test_evaluate_reports_previously_here(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        assigner.previously_on[0] |= 1 << 1
        info = assigner.evaluate(0, 1)
        assert info.previously_here
        info = assigner.evaluate(0, 0)
        assert not info.previously_here


class TestEvaluateTransactionality:
    def test_evaluate_leaves_state_untouched(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        before_pools = _counts(assigner.pools)
        before_clusters = dict(assigner.routing.cluster_of)
        assigner.evaluate(0, 0)
        assigner.evaluate(0, 1)
        assert _counts(assigner.pools) == before_pools
        assert assigner.routing.cluster_of == before_clusters

    def test_evaluate_counts_new_copies(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        assigner.commit(0, 0)
        info_far = assigner.evaluate(1, 1)
        info_near = assigner.evaluate(1, 0)
        assert info_far.new_copies == 1
        assert info_near.new_copies == 0

    def test_evaluate_infeasible_when_pool_full(self, two_gp):
        graph = Ddg()
        nodes = [graph.add_node(Opcode.ALU) for _ in range(9)]
        assigner = _assigner(graph, two_gp, ii=2)
        for node in nodes[:8]:  # fill cluster 0 (4 units x II 2)
            assigner.commit(node, 0)
        info = assigner.evaluate(nodes[8], 0)
        assert not info.feasible
        assert not info.op_fits
        assert assigner.evaluate(nodes[8], 1).feasible

    def test_full_issue_slot_plans_no_copies(self, pair_graph, two_gp):
        # The op's own slot is checked first: a full cluster is rejected
        # without replanning (or rolling back) anything.
        assigner = _assigner(pair_graph, two_gp, ii=1)
        assigner.commit(0, 0)
        assert assigner.pools.take(
            assigner.pools.table.demand([("issue", 1, "gp")] * 4)
        )
        with tracing() as trace:
            info = assigner.evaluate(1, 1)
        assert not info.feasible and not info.op_fits
        assert info.prediction_ok and info.new_copies == 0
        assert trace.counter("copies.replans") == 0


class TestForcedPlacement:
    def test_force_evicts_issue_holder(self, two_gp):
        graph = Ddg()
        nodes = [graph.add_node(Opcode.ALU) for _ in range(9)]
        assigner = _assigner(graph, two_gp, ii=2)
        for node in nodes[:8]:
            assigner.commit(node, 0)
        with tracing() as trace:
            assert assigner.force_assign(nodes[8], 0)
        assert assigner.routing.cluster_of[nodes[8]] == 0
        assert trace.counter("assign.evictions") >= 1
        # Exactly one of the previous holders went back to the worklist.
        assert len(assigner.unassigned) == 1

    def test_forced_node_is_protected_from_its_own_eviction(self, two_gp):
        graph = Ddg()
        producer = graph.add_node(Opcode.ALU)
        consumers = [graph.add_node(Opcode.ALU) for _ in range(3)]
        for consumer in consumers:
            graph.add_edge(producer, consumer, distance=0)
        assigner = _assigner(graph, two_gp, ii=1)
        assigner.commit(consumers[0], 0)
        assigner.commit(consumers[1], 1)
        # Force the producer somewhere; it must stay assigned afterwards.
        assert assigner.force_assign(producer, 0)
        assert producer in assigner.routing.cluster_of

    def test_force_fails_on_structurally_impossible_cluster(self):
        from repro.machine import four_cluster_grid
        machine = four_cluster_grid()
        graph = Ddg()
        load = graph.add_node(Opcode.LOAD)
        assigner = _assigner(graph, machine, ii=1)
        # Every grid cluster has a memory unit, so force works fine...
        assert assigner.force_assign(load, 0)


class TestConflictCounting:
    def test_no_conflicts_when_everything_fits(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=4)
        assigner.commit(0, 0)
        assert assigner.count_conflicts(1, 1) == 0

    def test_conflicts_counted_when_ports_exhausted(self, two_gp):
        # II 1: one rd slot on C0, one bus... two producers on C0 with
        # remote consumers saturate; a third consumer placement conflicts.
        graph = Ddg()
        producers = [graph.add_node(Opcode.ALU) for _ in range(2)]
        consumers = [graph.add_node(Opcode.ALU) for _ in range(2)]
        for p, c in zip(producers, consumers):
            graph.add_edge(p, c, distance=0)
        assigner = _assigner(graph, two_gp, ii=1)
        assigner.commit(producers[0], 0)
        assigner.commit(producers[1], 0)
        assigner.commit(consumers[0], 1)  # consumes C0's only rd slot
        conflicts = assigner.count_conflicts(consumers[1], 1)
        assert conflicts >= 1

    def test_count_conflicts_is_transactional(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        assigner.commit(0, 0)
        before = _counts(assigner.pools)
        assigner.count_conflicts(1, 1)
        assert _counts(assigner.pools) == before
        assert 1 not in assigner.routing.cluster_of


class TestEvictionCascades:
    def test_evict_releases_everything(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        assigner.commit(0, 0)
        assigner.commit(1, 1)
        assert assigner.routing.total_copies() == 1
        assert assigner.evict(1, protect=set())
        assert assigner.routing.total_copies() == 0
        pools = assigner.pools
        assert pools._used[pools.table.index["bus"]] == 0
        assert 1 in assigner.unassigned

    def test_grid_eviction_reroute_cascade_safe(self):
        machine = four_cluster_grid()
        graph = Ddg()
        producer = graph.add_node(Opcode.FP_ADD)
        consumers = [graph.add_node(Opcode.FP_ADD) for _ in range(3)]
        for consumer in consumers:
            graph.add_edge(producer, consumer, distance=0)
        assigner = _assigner(graph, machine, ii=2)
        assigner.commit(producer, 0)
        assigner.commit(consumers[0], 1)
        assigner.commit(consumers[1], 3)  # multi-hop via 1 or 2
        # Evicting the 1-hop consumer may reroute the diagonal path.
        assert assigner.evict(consumers[0], protect=set())
        # State stays consistent: replanning accounted below capacity.
        pools = assigner.pools
        for used, per_cycle in zip(_counts(pools), pools.table.per_cycle):
            assert 0 <= used <= per_cycle * 2


def _fresh(assigner):
    """A fresh routing state and pools derived from the assigner's
    cluster map alone."""
    machine = assigner.machine
    pools = ResourcePools(machine, assigner.ii)
    routing = RoutingState(
        assigner.ddg, machine, pools,
        share_broadcast=assigner.config.share_broadcast,
    )
    issue_demand = machine.resource_table.issue_demand
    for node_id, cluster in assigner.routing.cluster_of.items():
        opcode = assigner.ddg.node(node_id).opcode
        assert pools.take(issue_demand[fu_class_of(opcode)][cluster])
        routing.assign_unplanned(node_id, cluster)
    for node_id in assigner.routing.cluster_of:
        assert routing.replan(node_id)
    return routing, pools


def _rebuilt(assigner):
    """Plans and pool counts a fresh routing state and pools derive from
    the assigner's cluster map alone."""
    routing, pools = _fresh(assigner)
    return routing._plans, _counts(pools)


def _unpacked(assigner):
    """The cluster map and rule (A) histories decoded from the packed
    state: equal to the live ones exactly when the packing is exact."""
    n_clusters = assigner.machine.n_clusters
    shift = n_clusters.bit_length()
    width = shift + n_clusters
    clusters, histories = {}, {}
    for node_id, rank in assigner.order.rank.items():
        field = (assigner.state >> (rank * width)) & ((1 << width) - 1)
        cluster = (field & ((1 << shift) - 1)) - 1
        if cluster >= 0:
            clusters[node_id] = cluster
        histories[node_id] = field >> shift
    assert assigner.state >> (len(assigner.order.rank) * width) == 0
    return clusters, histories


class TestCycleStop:
    @pytest.mark.parametrize("machine_factory", [
        two_cluster_gp, four_cluster_grid,
    ], ids=["2gp", "grid"])
    def test_step_boundaries_are_functions_of_the_state(
        self, machine_factory, monkeypatch
    ):
        # The stop's premise: at every step boundary the live plans and
        # pool counts are what the cluster map alone implies, and once
        # the attempt has evicted, the packed state decodes to exactly
        # the cluster map and the histories.
        checked = {"steps": 0, "after_eviction": 0}
        revisits = _Assigner._revisits
        evict = _Assigner.evict
        evicted = weakref.WeakSet()

        def noted_evict(assigner, node_id, protect):
            evicted.add(assigner)
            return evict(assigner, node_id, protect)

        def checked_revisits(assigner, step):
            plans, used = _rebuilt(assigner)
            assert assigner.routing._plans == plans
            assert _counts(assigner.pools) == used
            checked["steps"] += 1
            if assigner in evicted:
                assert _unpacked(assigner) == (
                    assigner.routing.cluster_of, assigner.previously_on
                )
                checked["after_eviction"] += 1
            else:
                assert assigner.state is None
            return revisits(assigner, step)

        monkeypatch.setattr(_Assigner, "evict", noted_evict)
        monkeypatch.setattr(_Assigner, "_revisits", checked_revisits)
        machine = machine_factory()
        with tracing() as trace:
            for ddg in paper_suite(60):
                compile_loop(ddg, machine)
        assert checked["steps"] == trace.counter("assign.budget_spent") + \
            trace.counter("assign.budget_exhausted") + \
            trace.counter("assign.cycle_stops")
        assert checked["after_eviction"] > 0
        assert trace.counter("assign.cycle_stops") > 0

    def test_bilinear_blend_stops_on_its_first_repeat(self):
        machine = two_cluster_gp()
        ddg = build_kernel("bilinear_blend")
        assert len(ddg) == 16  # budget 6 x 16 = 96 steps
        with tracing() as trace:
            assert assign_clusters(ddg, machine, 2) is None
        assert trace.counter("assign.cycle_stops") == 1
        assert trace.counter("assign.budget_exhausted") == 0
        assert trace.counter("assign.budget_spent") < 96 // 2
        span, = trace.find("assign")
        assert span.attrs["stop"] == "cycle"
        assert span.attrs["cycle_period"] == 2
        # The step that found the repeat spent no budget.
        assert span.attrs["cycle_step"] == \
            trace.counter("assign.budget_spent") + 1

    def test_stop_is_exact_against_the_full_budget(self, monkeypatch):
        # With the stop disabled the same attempt runs its budget out
        # and fails too: the cycle stop only removes replayed steps.
        machine = two_cluster_gp()
        ddg = build_kernel("bilinear_blend")
        monkeypatch.setattr(_Assigner, "_revisits", lambda self, step: False)
        with tracing() as trace:
            assert assign_clusters(ddg, machine, 2) is None
        assert trace.counter("assign.budget_exhausted") == 1
        assert trace.counter("assign.budget_spent") == 96


def _waiting(routing, producer):
    """UnassignedSuccessors(producer), recounted from the cluster map."""
    return sum(
        1 for consumer in routing.value_consumers(producer)
        if consumer not in routing.cluster_of
    )


def _trial(fresh):
    """A throwaway copy of a :func:`_fresh` routing state and pools to
    apply one placement to; dropping it is the roll-back."""
    base, base_pools = fresh
    pools = base_pools.copy()
    routing = copy.copy(base)
    routing.pools = pools
    routing.cluster_of = dict(base.cluster_of)
    routing._plans = dict(base._plans)
    routing._unassigned_consumers = dict(base._unassigned_consumers)
    return routing, pools


def _transaction_candidate(assigner, fresh, node_id, cluster):
    """What :meth:`_Assigner.evaluate` measures, the way it measured it
    before it probed: apply the placement to a copy of the fresh state,
    replan each affected producer until one fails, and measure there.
    PCR is recounted from the cluster map and the replanned plans."""
    machine = assigner.machine
    previously_here = (assigner.previously_on[node_id] >> cluster) & 1 == 1
    demand = assigner._op_demand[node_id][cluster]
    if demand is None:
        return CandidateInfo(
            cluster=cluster, feasible=False, shares_scc=False,
            prediction_ok=False, new_copies=0, free_resources=0,
            previously_here=previously_here, op_fits=False,
        )
    scc = assigner.order.scc_of(node_id)
    shares_scc = scc is not None and any(
        other != node_id
        and assigner.routing.cluster_of.get(other) == cluster
        for other in scc.nodes
    )
    routing, pools = _trial(fresh)
    op_fits = pools.fits(demand)
    feasible, prediction_ok, new_copies, free_resources = False, True, 0, 0
    if op_fits:
        before = routing.total_copies()
        pools.take(demand)
        routing.assign_unplanned(node_id, cluster)
        feasible = all(
            routing.replan(producer)
            for producer in routing.affected_producers(node_id)
        )
        if feasible:
            new_copies = routing.total_copies() - before
            if assigner.config.predict_copies:
                pcr = sum(
                    min(
                        upper_bound(machine, routing, other),
                        _waiting(routing, other),
                    )
                    for other, home in routing.cluster_of.items()
                    if home == cluster
                )
                prediction_ok = pcr <= pools.max_reservable_copies(cluster)
            free_resources = pools.free_cluster_slots(cluster)
    return CandidateInfo(
        cluster=cluster, feasible=feasible, shares_scc=shares_scc,
        prediction_ok=prediction_ok, new_copies=new_copies,
        free_resources=free_resources, previously_here=previously_here,
        op_fits=op_fits,
    )


def _transaction_conflicts(assigner, fresh, node_id, cluster):
    """What :meth:`_Assigner.count_conflicts` counts, the way it counted
    before it probed: replan every affected producer on a copy of the
    fresh state holding the placement, counting the replans that fail."""
    if assigner._op_demand[node_id][cluster] is None:
        return len(assigner.ddg.node_ids)
    routing, _ = _trial(fresh)
    routing.assign_unplanned(node_id, cluster)
    return sum(
        1
        for producer in routing.affected_producers(node_id)
        if not routing.replan(producer)
    )


def _live_state(assigner):
    routing = assigner.routing
    return (
        list(routing.cluster_of.items()),
        list(routing._plans.items()),
        _counts(assigner.pools),
    )


class TestReadOnlyProbes:
    @pytest.mark.parametrize("config", [
        HEURISTIC_ITERATIVE, SIMPLE_ITERATIVE, NO_PREDICTION,
        NO_BROADCAST_SHARING,
    ], ids=[
        "heuristic-iterative", "simple-iterative", "no-prediction",
        "no-broadcast-sharing",
    ])
    # 4gp is the only one of these machines on which broadcast sharing
    # changes a plan.
    @pytest.mark.parametrize("machine_factory", [
        two_cluster_gp,
        four_cluster_gp,
        four_cluster_grid,
        lambda: ring_machine(5, PAPER_GRID_MIX),
        lambda: heterogeneous_gp([6, 2], buses=2, ports=1),
    ], ids=["2gp", "4gp", "grid", "ring5", "het6x2"])
    def test_probes_equal_the_transaction_they_replace(
        self, machine_factory, config, monkeypatch
    ):
        # At every step boundary, for the node the step assigns and for
        # every cluster, the probes answer what applying the placement,
        # measuring and rolling back answered, and change nothing.
        seen = {"steps": 0, "infeasible": 0, "conflicts": 0}
        revisits = _Assigner._revisits

        def checked_revisits(assigner, step):
            routing = assigner.routing
            assert routing._unassigned_consumers == {
                producer: _waiting(routing, producer)
                for producer in assigner.ddg.node_ids
            }
            node_id = min(assigner.unassigned, key=assigner.order.priority_of)
            fresh = _fresh(assigner)
            before = _live_state(assigner)
            for cluster in assigner.machine.cluster_indices:
                candidate = assigner.evaluate(node_id, cluster)
                assert candidate == _transaction_candidate(
                    assigner, fresh, node_id, cluster
                )
                assert _live_state(assigner) == before
                conflicts = assigner.count_conflicts(node_id, cluster)
                assert conflicts == _transaction_conflicts(
                    assigner, fresh, node_id, cluster
                )
                assert _live_state(assigner) == before
                seen["infeasible"] += not candidate.feasible
                seen["conflicts"] += conflicts > 0
            seen["steps"] += 1
            return revisits(assigner, step)

        monkeypatch.setattr(_Assigner, "_revisits", checked_revisits)
        machine = machine_factory()
        for ddg in paper_suite(60):
            compile_loop(ddg, machine, config=config)
        assert seen["steps"] > 0
        assert seen["infeasible"] > 0
        assert seen["conflicts"] > 0
