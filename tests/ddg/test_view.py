"""Compiled DDG views: caching, invalidation, and adjacency content."""

import pytest

from repro import obs
from repro.ddg import Ddg, Opcode, build_ddg, scc_components
from repro.ddg.mii import rec_mii, rec_mii_exceeds


@pytest.fixture
def recurrence():
    """a -> b -> c with recurrence c -> a at distance 1, plus a free d."""
    return build_ddg(
        ops=[
            ("a", Opcode.ALU),
            ("b", Opcode.LOAD),
            ("c", Opcode.ALU),
            ("d", Opcode.ALU),
        ],
        deps=[
            ("a", "b", 0),
            ("b", "c", 0),
            ("c", "a", 1),
            ("a", "d", 0),
        ],
    )


class TestViewCaching:
    def test_view_is_cached_until_mutation(self, recurrence):
        first = recurrence.view()
        assert recurrence.view() is first

    def test_add_node_invalidates(self, recurrence):
        first = recurrence.view()
        recurrence.add_node(Opcode.ALU)
        second = recurrence.view()
        assert second is not first
        assert second.version != first.version

    def test_add_edge_invalidates(self, recurrence):
        first = recurrence.view()
        recurrence.add_edge(1, 3, distance=0)
        assert recurrence.view() is not first

    def test_rebuild_counter(self, recurrence):
        with obs.tracing() as trace:
            recurrence.view()
            recurrence.view()  # cached, no rebuild
            recurrence.add_node(Opcode.ALU)
            recurrence.view()
        assert trace.counter("ddg.view_rebuilds") == 2

    def test_copy_does_not_share_view(self, recurrence):
        original = recurrence.view()
        clone = recurrence.copy()
        assert clone.view() is not original


class TestViewContent:
    def test_adjacency_matches_graph_accessors(self, recurrence):
        view = recurrence.view()
        for node_id in recurrence.node_ids:
            assert list(view.successors[node_id]) == \
                recurrence.successors(node_id)
            assert list(view.predecessors[node_id]) == \
                recurrence.predecessors(node_id)

    def test_edge_array_preserves_insertion_order(self, recurrence):
        view = recurrence.view()
        expected = [
            (e.src, e.dst, recurrence.latency(e.src), e.distance)
            for e in recurrence.edges
        ]
        assert list(view.edge_array) == expected

    def test_dependence_specs_match_graph_edges(self, recurrence):
        recurrence.add_edge(1, 1, distance=2)
        view = recurrence.view()
        for node_id in recurrence.node_ids:
            assert view.in_specs[node_id] == tuple(
                (e.src, recurrence.latency(e.src), e.distance)
                for e in recurrence.in_edges(node_id)
            )
            assert view.out_specs[node_id] == tuple(
                (e.dst, e.distance) for e in recurrence.out_edges(node_id)
            )

    def test_latency_and_value_maps(self, recurrence):
        view = recurrence.view()
        for node_id in recurrence.node_ids:
            assert view.latency[node_id] == recurrence.latency(node_id)
            node = recurrence.node(node_id)
            assert view.produces_value[node_id] == node.produces_value


class TestSccComponents:
    def test_components_found(self, recurrence):
        components = scc_components(recurrence)
        assert [frozenset(c) for c in components] == [frozenset({0, 1, 2})]

    def test_self_loop_is_component(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        graph.add_edge(a, a, distance=1)
        assert [frozenset(c) for c in scc_components(graph)] == [
            frozenset({a})
        ]

    def test_components_cached_on_view(self, recurrence):
        first = scc_components(recurrence)
        assert scc_components(recurrence) is first


class TestRecMiiMemoization:
    def test_repeat_rec_mii_hits_cache(self, recurrence):
        with obs.tracing() as trace:
            first = rec_mii(recurrence)
            second = rec_mii(recurrence)
        assert first == second == 4  # (1 + 2 + 1) / 1
        assert trace.counter("mii.recmii_cache_hits") >= 1

    def test_exceeds_agrees_with_exact(self, recurrence):
        exact = rec_mii(recurrence)
        fresh = recurrence.copy()
        for ii in range(1, exact + 3):
            assert rec_mii_exceeds(fresh, ii) == (exact > ii)

    def test_exceeds_probes_promote_to_exact(self, recurrence):
        # Walk candidate IIs upward like the Figure-5 driver does; the
        # first threshold query stores the exact value, so the exact
        # request afterwards is a cache hit.
        for ii in range(1, 5):
            rec_mii_exceeds(recurrence, ii)
        with obs.tracing() as trace:
            assert rec_mii(recurrence) == 4
        assert trace.counter("mii.recmii_cache_hits") >= 1

    def test_mutation_invalidates_memo(self, recurrence):
        assert rec_mii(recurrence) == 4
        # Second recurrence b -> b over the load doubles nothing but the
        # graph version; the memo must not leak across versions.
        recurrence.add_edge(1, 1, distance=2)
        assert rec_mii(recurrence) == 4

    def test_zero_distance_cycle_still_raises(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        b = graph.add_node(Opcode.ALU)
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=0)
        with pytest.raises(ValueError):
            rec_mii(graph)
        with pytest.raises(ValueError):
            rec_mii_exceeds(graph, 1)
