"""The cluster assignment phase."""

from dataclasses import replace

import pytest

from repro.core import (
    HEURISTIC,
    HEURISTIC_ITERATIVE,
    SIMPLE,
    SIMPLE_ITERATIVE,
    assign_clusters,
)
from repro.ddg import Ddg, Opcode
from repro.machine import two_cluster_gp
from repro.obs import tracing
from repro.scheduling import assert_valid, modulo_schedule


class TestBasics:
    def test_unified_machine_trivial(self, chain3, uni8):
        annotated = assign_clusters(chain3, uni8, ii=2)
        assert annotated is not None
        assert set(annotated.cluster_of.values()) == {0}
        assert annotated.copy_count == 0

    def test_empty_graph_rejected(self, two_gp):
        with pytest.raises(ValueError):
            assign_clusters(Ddg(), two_gp, ii=1)

    def test_small_loop_fits_one_cluster(self, chain3, two_gp):
        annotated = assign_clusters(chain3, two_gp, ii=2)
        assert annotated is not None
        assert annotated.copy_count == 0
        clusters = {annotated.cluster_of[n] for n in chain3.node_ids}
        assert len(clusters) == 1

    def test_annotated_graph_validates(
        self, intro_example, two_gp, annotation_issues
    ):
        annotated = assign_clusters(intro_example, two_gp, ii=4)
        assert annotated is not None
        assert annotation_issues(annotated) == []

    def test_stats_populated(self, intro_example, two_gp):
        with tracing() as trace:
            annotated = assign_clusters(intro_example, two_gp, ii=4)
        assert annotated is not None
        span, = trace.find("assign")
        assert span.attrs["succeeded"]
        assert span.attrs["copies"] == annotated.copy_count
        assert trace.counter("assign.placements") >= len(intro_example)


class TestSccCohesion:
    def test_scc_stays_on_one_cluster_when_it_fits(self, intro_example,
                                                   two_gp):
        annotated = assign_clusters(intro_example, two_gp, ii=4)
        assert annotated is not None
        scc_nodes = intro_example.node_ids[1:4]
        clusters = {annotated.cluster_of[n] for n in scc_nodes}
        assert len(clusters) == 1

    def test_paper_example_achieves_mii(self, intro_example):
        """Section 3.2: SCC-first + prediction achieves II = 4 on a
        2-cluster machine (per-cluster width 1 scaled up here: the real
        configuration still matches the unified II)."""
        machine = two_cluster_gp()
        annotated = assign_clusters(intro_example, machine, ii=4)
        assert annotated is not None
        schedule = modulo_schedule(annotated, ii=4)
        assert schedule is not None
        assert_valid(schedule)


class TestResourceSplitting:
    def _wide_loop(self, n_ops):
        graph = Ddg()
        src = graph.add_node(Opcode.ALU, name="src")
        for i in range(n_ops - 1):
            node = graph.add_node(Opcode.ALU, name=f"op{i}")
            graph.add_edge(src, node, distance=0)
        return graph

    def test_wide_loop_must_split(self, two_gp):
        # 16 ops at II 2 exceed one 4-wide cluster (capacity 8).
        graph = self._wide_loop(16)
        annotated = assign_clusters(graph, two_gp, ii=2)
        assert annotated is not None
        clusters = {
            annotated.cluster_of[n]
            for n in range(16)
        }
        assert clusters == {0, 1}
        # src's value feeds both clusters: exactly one broadcast copy.
        assert annotated.copy_count == 1

    def test_assignment_fails_when_nothing_fits(self, two_gp):
        # 17 ops cannot fit 2 clusters x 4 units x II 2 = 16 slots.
        graph = self._wide_loop(17)
        assert assign_clusters(graph, two_gp, ii=2) is None

    def test_larger_ii_recovers(self, two_gp):
        graph = self._wide_loop(17)
        annotated = assign_clusters(graph, two_gp, ii=3)
        assert annotated is not None


class TestVariants:
    @pytest.mark.parametrize(
        "config", [SIMPLE, HEURISTIC, SIMPLE_ITERATIVE, HEURISTIC_ITERATIVE]
    )
    def test_all_variants_produce_valid_assignments(
        self, config, intro_example, two_gp, annotation_issues
    ):
        annotated = assign_clusters(intro_example, two_gp, ii=4,
                                    config=config)
        if annotated is not None:
            assert annotation_issues(annotated) == []
            schedule = modulo_schedule(annotated, ii=4)
            if schedule is not None:
                assert_valid(schedule)

    def test_non_iterative_gives_up_on_first_failure(self, two_gp):
        graph = TestResourceSplitting()._wide_loop(17)
        with tracing() as trace:
            result = assign_clusters(graph, two_gp, ii=2, config=HEURISTIC)
        assert result is None
        assert trace.counter("assign.evictions") == 0
        span, = trace.find("assign")
        assert span.attrs["stop"] == "abandoned"

    def test_iterative_uses_evictions_under_pressure(
        self, two_gp, annotation_issues
    ):
        # A graph that tends to need revisiting: two interleaved wide
        # fan-outs plus port pressure at a tight II.
        graph = Ddg()
        p1 = graph.add_node(Opcode.ALU)
        p2 = graph.add_node(Opcode.ALU)
        for i in range(12):
            node = graph.add_node(Opcode.ALU)
            graph.add_edge(p1 if i % 2 else p2, node, distance=0)
        annotated = assign_clusters(
            graph, two_gp, ii=2, config=HEURISTIC_ITERATIVE
        )
        if annotated is not None:
            assert annotation_issues(annotated) == []


class TestGridAssignment:
    def test_grid_copies_are_single_hop_chains(
        self, grid, annotation_issues
    ):
        # Producer fans out to consumers that cannot all share a cluster.
        graph = Ddg()
        producer = graph.add_node(Opcode.FP_ADD)
        loads = [graph.add_node(Opcode.LOAD) for _ in range(8)]
        for load in loads:
            graph.add_edge(producer, load, distance=0)
        annotated = assign_clusters(graph, grid, ii=2)
        assert annotated is not None
        assert annotation_issues(annotated) == []
        for copy_id in annotated.copy_nodes:
            src = annotated.cluster_of[copy_id]
            for target in annotated.copy_targets[copy_id]:
                assert grid.interconnect.reachable(src, target)

    def test_grid_respects_unit_classes(self, grid):
        from repro.workloads import build_kernel
        graph = build_kernel("lk1_hydro")
        annotated = assign_clusters(graph, grid, ii=3)
        assert annotated is not None
        for node in graph.nodes:
            cluster = grid.cluster(annotated.cluster_of[node.node_id])
            if not node.is_copy:
                assert cluster.issue_capacity(node.fu_class) > 0


class TestBudget:
    def test_budget_bounds_work(self, two_gp, annotation_issues):
        # Even a pathological case terminates (returns None or result).
        graph = Ddg()
        hub = graph.add_node(Opcode.ALU)
        for _ in range(15):
            node = graph.add_node(Opcode.ALU)
            graph.add_edge(hub, node, distance=0)
            graph.add_edge(node, hub, distance=1)
        config = replace(HEURISTIC_ITERATIVE, budget_ratio=2)
        result = assign_clusters(graph, two_gp, ii=2, config=config)
        if result is not None:
            assert annotation_issues(result) == []
