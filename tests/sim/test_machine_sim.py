"""Cycle-accurate machine simulation: positive and negative cases."""

import pytest

from repro.core import compile_loop
from repro.ddg import Ddg, Opcode
from repro.machine import four_cluster_fs, four_cluster_grid, two_cluster_gp
from repro.scheduling import Schedule
from repro.sim import (
    assert_executes_correctly,
    simulate_schedule,
)
from repro.workloads import all_kernels, generate_suite


class TestCleanExecution:
    def test_intro_example_unified(self, intro_example, uni8):
        result = compile_loop(intro_example, uni8)
        report = simulate_schedule(intro_example, result.schedule, 5)
        assert report.ok
        assert report.checked_values == 5 * len(intro_example)

    def test_intro_example_clustered(self, intro_example, two_gp):
        result = compile_loop(intro_example, two_gp)
        assert_executes_correctly(intro_example, result.schedule, 6)

    def test_every_kernel_every_machine(self, any_clustered_machine):
        for loop in all_kernels():
            result = compile_loop(loop, any_clustered_machine)
            report = simulate_schedule(loop, result.schedule, 4)
            assert report.ok, (loop.name, report.violations[:3])

    def test_copies_transport_correct_iterations(self, two_gp):
        """A loop-carried cross-cluster value is the acid test."""
        graph = Ddg(name="carried")
        producers = [graph.add_node(Opcode.ALU) for _ in range(9)]
        consumer = graph.add_node(Opcode.FP_ADD, name="c")
        graph.add_edge(producers[0], consumer, distance=2)
        for p in producers[1:]:
            graph.add_edge(producers[0], p, distance=0)
        result = compile_loop(graph, two_gp)
        assert_executes_correctly(graph, result.schedule, 7)

    def test_grid_multi_hop_values_arrive(self, grid):
        graph = Ddg(name="fan")
        src = graph.add_node(Opcode.FP_ADD)
        sinks = [graph.add_node(Opcode.LOAD) for _ in range(8)]
        for sink in sinks:
            graph.add_edge(src, sink, distance=0)
        result = compile_loop(graph, grid)
        assert_executes_correctly(graph, result.schedule, 4)

    def test_single_iteration(self, chain3, two_gp):
        result = compile_loop(chain3, two_gp)
        assert simulate_schedule(chain3, result.schedule, 1).ok

    def test_report_cycle_count(self, chain3, uni8):
        result = compile_loop(chain3, uni8)
        report = simulate_schedule(chain3, result.schedule, 3)
        assert report.cycles >= result.ii * 3


class TestNegativeCases:
    """Corrupted schedules must be caught by execution."""

    def _compiled(self, graph, machine):
        return compile_loop(graph, machine)

    def test_shuffled_starts_detected(self, intro_example, two_gp):
        result = self._compiled(intro_example, two_gp)
        starts = dict(result.schedule.start)
        keys = list(starts)
        # Swap two ops' start cycles to break latencies.
        starts[keys[0]], starts[keys[-1]] = starts[keys[-1]], starts[keys[0]]
        bad = Schedule(
            annotated=result.annotated, ii=result.ii, start=starts
        )
        report = simulate_schedule(intro_example, bad, 5)
        assert not report.ok

    def test_wrong_cluster_read_detected(self, two_gp):
        """Moving a consumer to another cluster without a copy starves
        it: the simulator reports a dataflow violation."""
        graph = Ddg()
        producer = graph.add_node(Opcode.ALU)
        consumer = graph.add_node(Opcode.ALU)
        graph.add_edge(producer, consumer, distance=0)
        result = self._compiled(graph, two_gp)
        annotated = result.annotated
        # Corrupt: teleport the consumer to the other cluster.
        victim = consumer
        original_cluster = annotated.cluster_of[victim]
        annotated.cluster_of[victim] = 1 - original_cluster
        report = simulate_schedule(graph, result.schedule, 3)
        assert any(v.kind == "dataflow" for v in report.violations)
        annotated.cluster_of[victim] = original_cluster

    def test_premature_read_detected(self, chain3, uni8):
        result = self._compiled(chain3, uni8)
        starts = dict(result.schedule.start)
        ld, mul, st = chain3.node_ids
        starts[mul] = starts[ld]  # reads the load's result too early
        bad = Schedule(
            annotated=result.annotated, ii=result.ii, start=starts
        )
        report = simulate_schedule(chain3, bad, 3)
        assert any(
            v.kind in ("timing", "dataflow") for v in report.violations
        )

    def test_resource_oversubscription_detected(self, uni8):
        graph = Ddg()
        nodes = [graph.add_node(Opcode.ALU) for _ in range(9)]
        from repro.ddg import trivial_annotation
        annotated = trivial_annotation(graph, uni8)
        bad = Schedule(
            annotated=annotated, ii=2, start={n: 0 for n in nodes}
        )
        report = simulate_schedule(graph, bad, 2)
        assert any(v.kind == "resource" for v in report.violations)

    def test_assert_raises_on_bad_schedule(self, chain3, uni8):
        result = self._compiled(chain3, uni8)
        starts = dict(result.schedule.start)
        ld, mul, st = chain3.node_ids
        starts[st] = starts[mul]
        bad = Schedule(
            annotated=result.annotated, ii=result.ii, start=starts
        )
        with pytest.raises(AssertionError):
            assert_executes_correctly(chain3, bad, 3)


class TestSuiteSweep:
    def test_synthetic_slice_executes_on_all_machines(self):
        machines = [two_cluster_gp(), four_cluster_fs(), four_cluster_grid()]
        for loop in generate_suite(15):
            for machine in machines:
                result = compile_loop(loop, machine)
                report = simulate_schedule(loop, result.schedule, 4)
                assert report.ok, (loop.name, machine.name)
