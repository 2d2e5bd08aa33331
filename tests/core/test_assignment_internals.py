"""White-box tests of the assigner's internals: rule (A) history,
forced placement, conflict counting, eviction cascades."""

import pytest

from repro.core.assignment import AssignmentStats, _Assigner
from repro.core.variants import HEURISTIC_ITERATIVE
from repro.ddg import Ddg, Opcode
from repro.machine import four_cluster_grid
from repro.obs import tracing


def _assigner(ddg, machine, ii):
    return _Assigner(
        ddg, machine, ii, HEURISTIC_ITERATIVE, AssignmentStats(ii=ii)
    )


@pytest.fixture
def pair_graph():
    graph = Ddg()
    producer = graph.add_node(Opcode.ALU, name="p")
    consumer = graph.add_node(Opcode.ALU, name="c")
    graph.add_edge(producer, consumer, distance=0)
    return graph


class TestRuleAHistory:
    def test_history_records_assignments(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        assigner.commit(0, 1)
        assert assigner.previously_on[0] == {1}

    def test_history_clears_when_full(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        assigner._record_history(0, 0)
        assert assigner.previously_on[0] == {0}
        assigner._record_history(0, 1)
        # Covered both clusters: cleared down to the latest entry.
        assert assigner.previously_on[0] == {1}

    def test_evaluate_reports_previously_here(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        assigner.previously_on[0].add(1)
        info = assigner.evaluate(0, 1)
        assert info.previously_here
        info = assigner.evaluate(0, 0)
        assert not info.previously_here


class TestEvaluateTransactionality:
    def test_evaluate_leaves_state_untouched(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        before_pools = assigner.pools.checkpoint()
        before_clusters = dict(assigner.routing.cluster_of)
        assigner.evaluate(0, 0)
        assigner.evaluate(0, 1)
        assert assigner.pools.checkpoint() == before_pools
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
        assigner.pools.reserve([("issue", 1, "gp")] * 4)
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
        assert assigner.force_assign(nodes[8], 0)
        assert assigner.routing.cluster_of[nodes[8]] == 0
        assert assigner.stats.evictions >= 1
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
        snapshot = assigner.pools.checkpoint()
        assigner.count_conflicts(1, 1)
        assert assigner.pools.checkpoint() == snapshot
        assert 1 not in assigner.routing.cluster_of


class TestEvictionCascades:
    def test_evict_releases_everything(self, pair_graph, two_gp):
        assigner = _assigner(pair_graph, two_gp, ii=2)
        assigner.commit(0, 0)
        assigner.commit(1, 1)
        assert assigner.routing.total_copies() == 1
        assert assigner.evict(1, protect=set())
        assert assigner.routing.total_copies() == 0
        assert assigner.pools.used("bus") == 0
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
        for key in assigner.pools.keys():
            assert 0 <= assigner.pools.used(key) <= (
                assigner.pools.capacity(key)
            )
