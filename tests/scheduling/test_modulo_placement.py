"""Bidirectional placement behavior of the iterative modulo scheduler."""


from repro.ddg import Ddg, Opcode, trivial_annotation
from repro.machine import unified_fs, unified_gp
from repro.obs import tracing
from repro.scheduling import assert_valid, modulo_schedule


class TestBidirectionalWindows:
    def test_successor_first_order_converges(self):
        """SMS ordering can list a consumer before its producer; the
        downward window must place the producer early enough without
        endless displacement (the livelock this design fixes)."""
        graph = Ddg()
        # A tight recurrence whose SMS order interleaves directions.
        nodes = [graph.add_node(Opcode.ALU) for _ in range(6)]
        for a, b in zip(nodes, nodes[1:]):
            graph.add_edge(a, b, distance=0)
        graph.add_edge(nodes[-1], nodes[0], distance=1)  # RecMII 6
        annotated = trivial_annotation(graph, unified_gp(2))
        schedule = modulo_schedule(annotated, ii=6)
        assert schedule is not None
        assert_valid(schedule)

    def test_tight_scc_schedules_at_exact_recmii(self):
        graph = Ddg()
        a = graph.add_node(Opcode.FP_MULT)  # 3
        b = graph.add_node(Opcode.FP_ADD)  # 1
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=1)  # RecMII 4
        annotated = trivial_annotation(graph, unified_gp(4))
        schedule = modulo_schedule(annotated, ii=4)
        assert schedule is not None
        # The cycle is tight: b must start exactly 3 after a, and a
        # exactly 1 + (II*1) - ... i.e. both constraints are equalities.
        assert schedule.start[b] == schedule.start[a] + 3

    def test_normalization_keeps_rows(self):
        """Downward placement can go negative; normalization shifts by a
        multiple of II so rows (and thus resources) are unchanged."""
        graph = Ddg()
        nodes = [graph.add_node(Opcode.FP_DIV) for _ in range(3)]
        graph.add_edge(nodes[0], nodes[1], distance=0)
        graph.add_edge(nodes[1], nodes[2], distance=0)
        graph.add_edge(nodes[2], nodes[0], distance=2)
        annotated = trivial_annotation(graph, unified_gp(4))
        from repro.ddg import rec_mii
        ii = rec_mii(graph)
        schedule = modulo_schedule(annotated, ii=ii)
        assert schedule is not None
        assert all(t >= 0 for t in schedule.start.values())
        assert_valid(schedule)

    def test_window_clipped_by_scheduled_successor(self):
        """With both neighbors placed, the op must land between them."""
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        b = graph.add_node(Opcode.ALU)
        c = graph.add_node(Opcode.ALU)
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, c, distance=0)
        annotated = trivial_annotation(graph, unified_gp(1))
        schedule = modulo_schedule(annotated, ii=3)
        assert schedule is not None
        assert (schedule.start[a] < schedule.start[b]
                < schedule.start[c])


class TestDisplacementAccounting:
    def test_stats_track_displacements_under_pressure(self):
        graph = Ddg()
        # 12 loads on 2 memory units at II 6: heavy contention.
        loads = [graph.add_node(Opcode.LOAD) for _ in range(12)]
        chain = [graph.add_node(Opcode.FP_ADD) for _ in range(4)]
        for load, add in zip(loads, chain * 3):
            graph.add_edge(load, add, distance=0)
        machine = unified_fs(memory=2, integer=2, floating=2)
        annotated = trivial_annotation(graph, machine)
        with tracing() as trace:
            schedule = modulo_schedule(annotated, ii=6)
        assert schedule is not None
        # Every op placed once, plus once more per displacement.
        assert trace.counter("sched.placements") == \
            len(graph) + trace.counter("sched.backtracks")
        assert_valid(schedule)

    def test_budget_exhaustion_returns_none(self):
        graph = Ddg()
        loads = [graph.add_node(Opcode.LOAD) for _ in range(8)]
        machine = unified_fs(memory=1, integer=1, floating=1)
        annotated = trivial_annotation(graph, machine)
        # II 7 < ResMII 8: impossible; must fail cleanly, not hang.
        assert modulo_schedule(annotated, ii=7) is None
