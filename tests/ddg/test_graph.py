"""DDG construction and structural queries."""

import time

import pytest

from repro.ddg import Ddg, Edge, Opcode, build_ddg
from repro.ddg.validate import ValidationError


class TestConstruction:
    def test_add_node_returns_sequential_ids(self):
        graph = Ddg()
        assert graph.add_node(Opcode.ALU) == 0
        assert graph.add_node(Opcode.LOAD) == 1
        assert graph.add_node(Opcode.STORE) == 2

    def test_node_records_opcode_and_default_latency(self):
        graph = Ddg()
        node_id = graph.add_node(Opcode.FP_MULT, name="m")
        node = graph.node(node_id)
        assert node.opcode is Opcode.FP_MULT
        assert node.latency == 3
        assert node.name == "m"

    def test_latency_override(self):
        graph = Ddg()
        node_id = graph.add_node(Opcode.LOAD, latency=5)
        assert graph.latency(node_id) == 5

    def test_add_edge_requires_existing_endpoints(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        for src, dst in ((a, 99), (99, a)):
            with pytest.raises(ValidationError) as excinfo:
                graph.add_edge(src, dst)
            assert excinfo.value.code == "DDG101"
        assert graph.edge_count() == 0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            Edge(src=0, dst=1, distance=-1)

    def test_len_and_contains(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        assert len(graph) == 1
        assert a in graph
        assert 42 not in graph


class TestAdjacency:
    def test_successors_and_predecessors(self, chain3):
        ld, mul, st = chain3.node_ids
        assert chain3.successors(ld) == [mul]
        assert chain3.predecessors(st) == [mul]
        assert chain3.predecessors(ld) == []
        assert chain3.successors(st) == []

    def test_parallel_edges_counted_once_in_successors(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        b = graph.add_node(Opcode.ALU)
        graph.add_edge(a, b, distance=0)
        graph.add_edge(a, b, distance=1)
        assert graph.successors(a) == [b]
        assert len(graph.out_edges(a)) == 2

    def test_self_loop(self, accumulator):
        acc = accumulator.node_ids[1]
        assert acc in accumulator.successors(acc)
        assert acc in accumulator.predecessors(acc)

    def test_high_fan_out_dedup_order_and_speed(self):
        # One producer with thousands of parallel edges to each of a few
        # consumers: dedup must stay first-occurrence-ordered and linear
        # (the seed's `not in list` scan was quadratic in fan-out).
        graph = Ddg()
        producer = graph.add_node(Opcode.ALU)
        consumers = [graph.add_node(Opcode.ALU) for _ in range(8)]
        for distance in range(500):
            for consumer in consumers:
                graph.add_edge(producer, consumer, distance=distance)
        start = time.perf_counter()
        succs = graph.successors(producer)
        elapsed = time.perf_counter() - start
        assert succs == consumers  # first-occurrence order, one each
        assert graph.predecessors(consumers[0]) == [producer]
        assert elapsed < 0.5  # 4000 edges: linear dedup is microseconds

    def test_edge_count(self, intro_example):
        assert intro_example.edge_count() == 6


class TestDerivedViews:
    def test_to_networkx_preserves_shape(self, intro_example):
        nx_graph = intro_example.to_networkx()
        assert nx_graph.number_of_nodes() == 6
        assert nx_graph.number_of_edges() == 6

    def test_to_networkx_edge_attributes(self, chain3):
        nx_graph = chain3.to_networkx()
        ld, mul, _ = chain3.node_ids
        data = list(nx_graph.get_edge_data(ld, mul).values())[0]
        assert data["distance"] == 0
        assert data["latency"] == 2  # load latency

    def test_copy_is_independent(self, chain3):
        clone = chain3.copy()
        clone.add_node(Opcode.ALU)
        assert len(clone) == len(chain3) + 1
        assert clone.edge_count() == chain3.edge_count()

    def test_copy_preserves_edges_and_adjacency(self, intro_example):
        clone = intro_example.copy()
        for node_id in intro_example.node_ids:
            assert clone.successors(node_id) == intro_example.successors(
                node_id
            )

    def test_total_latency(self, chain3):
        assert chain3.total_latency() == 2 + 3 + 1

    def test_op_histogram(self, chain3):
        histogram = chain3.op_histogram()
        assert histogram == {
            Opcode.LOAD: 1, Opcode.FP_MULT: 1, Opcode.STORE: 1,
        }


class TestBuildDdg:
    def test_symbolic_construction(self):
        graph = build_ddg(
            ops=[("x", Opcode.LOAD), ("y", Opcode.ALU)],
            deps=[("x", "y", 0)],
            name="tiny",
        )
        assert graph.name == "tiny"
        assert len(graph) == 2
        assert graph.edge_count() == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            build_ddg(
                ops=[("x", Opcode.ALU), ("x", Opcode.ALU)],
                deps=[],
            )

    def test_unknown_dep_name_raises(self):
        with pytest.raises(KeyError):
            build_ddg(ops=[("x", Opcode.ALU)], deps=[("x", "nope", 0)])
