"""Iterative modulo scheduler."""

import pytest

from repro.ddg import Ddg, Opcode, build_ddg, mii, trivial_annotation
from repro.machine import unified_fs, unified_gp
from repro.obs import tracing
from repro.scheduling import assert_valid, modulo_schedule


def _annotate(graph, machine):
    return trivial_annotation(graph, machine)


class TestBasicScheduling:
    def test_chain_schedules_at_ii_one(self, chain3, uni8):
        schedule = modulo_schedule(_annotate(chain3, uni8), ii=1)
        assert schedule is not None
        assert_valid(schedule)
        ld, mul, st = chain3.node_ids
        assert schedule.start[mul] >= schedule.start[ld] + 2
        assert schedule.start[st] >= schedule.start[mul] + 3

    def test_recurrence_respected(self, intro_example, uni8):
        schedule = modulo_schedule(_annotate(intro_example, uni8), ii=4)
        assert schedule is not None
        assert_valid(schedule)

    def test_below_recmii_fails_cleanly(self, intro_example, uni8):
        assert modulo_schedule(_annotate(intro_example, uni8), ii=3) is None

    def test_accumulator_self_loop(self, accumulator, uni8):
        schedule = modulo_schedule(_annotate(accumulator, uni8), ii=1)
        assert schedule is not None
        assert_valid(schedule)

    def test_empty_graph_rejected(self, uni8):
        annotated = trivial_annotation(Ddg(), uni8)
        with pytest.raises(ValueError):
            modulo_schedule(annotated, ii=1)


class TestResourceContention:
    def test_narrow_machine_forces_spread(self):
        # 8 independent ALUs on a 2-wide machine need II >= 4.
        graph = Ddg()
        for _ in range(8):
            graph.add_node(Opcode.ALU)
        machine = unified_gp(2)
        annotated = _annotate(graph, machine)
        assert modulo_schedule(annotated, ii=3) is None
        schedule = modulo_schedule(annotated, ii=4)
        assert schedule is not None
        assert_valid(schedule)

    def test_fs_class_contention(self):
        graph = build_ddg(
            ops=[(f"l{i}", Opcode.LOAD) for i in range(4)], deps=[]
        )
        machine = unified_fs(memory=2, integer=1, floating=1)
        annotated = _annotate(graph, machine)
        assert modulo_schedule(annotated, ii=1) is None
        schedule = modulo_schedule(annotated, ii=2)
        assert schedule is not None
        assert_valid(schedule)

    def test_eviction_counts_reported(self):
        # Saturated machine exercises displacement.
        graph = Ddg()
        prev = graph.add_node(Opcode.ALU)
        for _ in range(7):
            node = graph.add_node(Opcode.ALU)
            graph.add_edge(prev, node, distance=0)
            prev = node
        with tracing() as trace:
            schedule = modulo_schedule(_annotate(graph, unified_gp(2)), ii=4)
        assert schedule is not None
        span, = trace.find("schedule")
        assert span.attrs["succeeded"]
        assert trace.counter("sched.placements") >= len(graph)


class TestIiSearch:
    def test_search_finds_minimum(self, intro_example, uni8):
        # Started below the RecMII, compile_loop's search fails cleanly
        # at IIs 1-3 and stops at the first feasible one.
        from repro.core import compile_loop
        compiled = compile_loop(intro_example, uni8, min_ii=1)
        assert compiled.ii == 4  # RecMII of the intro example
        assert compiled.attempts == 4

    def test_search_matches_mii_for_kernels(self, uni8):
        # The unified baseline's II search is compile_loop's: every
        # kernel schedules within 8 cycles of its MII.
        from repro.core import compile_loop
        from repro.workloads import all_kernels
        for graph in all_kernels():
            compiled = compile_loop(graph, uni8)
            assert compiled.ii <= mii(graph, uni8) + 8
            assert_valid(compiled.schedule)


class TestBudget:
    def test_tiny_budget_fails_gracefully(self, intro_example, monkeypatch):
        # One issue slot per cycle cannot hold six ops at II 5, so the
        # attempt spends its whole budget, DEFAULT_BUDGET_RATIO x 6
        # placements, read at call time; a zero ratio leaves the
        # len+1 floor, which still schedules at II 6.
        annotated = _annotate(intro_example, unified_gp(1))
        with tracing() as trace:
            assert modulo_schedule(annotated, ii=5) is None
        assert trace.counter("sched.placements") == 6 * 6
        monkeypatch.setattr(
            "repro.scheduling.modulo.DEFAULT_BUDGET_RATIO", 0
        )
        with tracing() as trace:
            assert modulo_schedule(annotated, ii=5) is None
        assert trace.counter("sched.placements") == 6 + 1
        result = modulo_schedule(annotated, ii=6)
        assert result is not None
        assert_valid(result)


class TestOneMetricsPass:
    """Each scheduling attempt computes its priority metrics once and
    orders its operations (the SMS order) with that same object."""

    @pytest.mark.parametrize("machine_name", ["2gp", "grid"])
    def test_one_compute_metrics_call_per_attempt(
        self, machine_name, monkeypatch
    ):
        import sys

        import repro.scheduling.modulo as modulo
        import repro.scheduling.swing as swing
        from repro.core import compile_loop
        from repro.machine import STANDARD_PRESETS
        from repro.scheduling.priority import compute_metrics
        from repro.workloads import paper_suite

        attempts = []  # per attempt: (metrics computed, metrics ordered by)
        inside = []

        def counted_metrics(*args, **kwargs):
            metrics = compute_metrics(*args, **kwargs)
            if inside:
                attempts[-1][0].append(metrics)
            return metrics

        def recorded_order(ddg, sets, metrics):
            if inside:
                attempts[-1][1].append(metrics)
            return real_order(ddg, sets, metrics)

        def scheduling_loop(*args, **kwargs):
            attempts.append(([], []))
            inside.append(True)
            try:
                return real_loop(*args, **kwargs)
            finally:
                inside.pop()

        # Every module binding of compute_metrics, wherever the
        # scheduler might reach it.
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(module, "compute_metrics", None)
                    is compute_metrics):
                monkeypatch.setattr(
                    module, "compute_metrics", counted_metrics
                )
        real_order = swing.swing_order
        real_loop = modulo._modulo_schedule
        monkeypatch.setattr(swing, "swing_order", recorded_order)
        monkeypatch.setattr(modulo, "_modulo_schedule", scheduling_loop)

        machine = STANDARD_PRESETS[machine_name]()
        for ddg in paper_suite(30, 1998):
            compile_loop(ddg, machine)
        assert len(attempts) >= 30
        for computed, ordered in attempts:
            assert len(computed) == 1
            assert len(ordered) == 1
            assert ordered[0] is computed[0]
