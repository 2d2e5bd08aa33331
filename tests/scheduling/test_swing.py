"""Swing Modulo Scheduling node ordering."""


from repro.ddg import Ddg, Opcode, find_sccs
from repro.scheduling import assignment_order, compute_metrics, swing_order
from repro.scheduling.swing import ordering_sets


def _order(ddg, ii):
    """The full SMS order of ``ddg`` at ``ii``."""
    return assignment_order(ddg, compute_metrics(ddg, ii))


class TestOrderingSets:
    def test_scc_sets_before_rest(self, intro_example):
        partition = find_sccs(intro_example)
        sets = ordering_sets(intro_example, partition)
        assert len(sets) == 2
        b, c, d = intro_example.node_ids[1:4]
        assert sets[0] == {b, c, d}
        a, e, f = (intro_example.node_ids[0], *intro_example.node_ids[4:])
        assert sets[1] == {a, e, f}

    def test_acyclic_graph_single_set(self, chain3):
        sets = ordering_sets(chain3, find_sccs(chain3))
        assert sets == [set(chain3.node_ids)]

    def test_sets_ordered_by_criticality(self):
        graph = Ddg()
        slow = [graph.add_node(Opcode.FP_DIV) for _ in range(2)]
        graph.add_edge(slow[0], slow[1], distance=0)
        graph.add_edge(slow[1], slow[0], distance=1)
        fast = [graph.add_node(Opcode.ALU) for _ in range(2)]
        graph.add_edge(fast[0], fast[1], distance=0)
        graph.add_edge(fast[1], fast[0], distance=1)
        sets = ordering_sets(graph, find_sccs(graph))
        assert sets[0] == set(slow)
        assert sets[1] == set(fast)


class TestSwingOrder:
    def test_covers_every_node_once(self, intro_example):
        order = _order(intro_example, 4)
        assert sorted(order) == sorted(intro_example.node_ids)

    def test_scc_nodes_listed_first(self, intro_example):
        order = _order(intro_example, 4)
        scc_nodes = set(intro_example.node_ids[1:4])
        assert set(order[:3]) == scc_nodes

    def test_paper_ordering_property(self, intro_example):
        """Section 4.1: a node is listed after all its predecessors or
        after all its successors whenever possible."""
        order = _order(intro_example, 4)
        position = {node: i for i, node in enumerate(order)}
        violations = 0
        for node in intro_example.node_ids:
            preds = intro_example.predecessors(node)
            succs = intro_example.successors(node)
            after_all_preds = all(position[p] < position[node] for p in preds)
            after_all_succs = all(position[s] < position[node] for s in succs)
            if preds or succs:
                if not (after_all_preds or after_all_succs):
                    violations += 1
        # The recurrence makes one violation unavoidable at most.
        assert violations <= 1

    def test_chain_ordered_topologically_or_reverse(self, chain3):
        metrics = compute_metrics(chain3, ii=1)
        order = swing_order(chain3, [set(chain3.node_ids)], metrics)
        assert order in (
            list(chain3.node_ids), list(reversed(chain3.node_ids)),
        )

    def test_disconnected_components_all_ordered(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        b = graph.add_node(Opcode.FP_ADD)  # no edges at all
        c = graph.add_node(Opcode.LOAD)
        graph.add_edge(a, c, distance=0)
        order = _order(graph, 1)
        assert sorted(order) == [a, b, c]

    def test_deterministic(self, intro_example):
        first = _order(intro_example, 4)
        second = _order(intro_example, 4)
        assert first == second

    def test_empty_sets_skipped(self, chain3):
        metrics = compute_metrics(chain3, ii=1)
        order = swing_order(
            chain3, [set(), set(chain3.node_ids), set()], metrics
        )
        assert sorted(order) == sorted(chain3.node_ids)


class TestCriticalityFirst:
    def test_most_critical_scc_assigned_first(self):
        graph = Ddg()
        fast = [graph.add_node(Opcode.ALU) for _ in range(2)]
        graph.add_edge(fast[0], fast[1], distance=0)
        graph.add_edge(fast[1], fast[0], distance=1)
        slow = [graph.add_node(Opcode.FP_DIV) for _ in range(2)]
        graph.add_edge(slow[0], slow[1], distance=0)
        graph.add_edge(slow[1], slow[0], distance=1)
        order = _order(graph, 19)
        assert set(order[:2]) == set(slow)
        assert set(order[2:]) == set(fast)
