"""Seeded-defect fixtures: one corrupted input per rule family.

Each test plants exactly one defect, lints the artifact, and asserts
the run reports *exactly* the expected stable code with a nonzero exit
-- the acceptance contract for the diagnostic catalog.  Defects in a
compiled loop (annotated graph, schedule, register allocation) are
certify's: ``tests/certify/test_defect_matrix.py`` seeds those.
"""

from repro.ddg import Ddg, Opcode
from repro.lint import LintTarget, lint_target
from repro.machine import Machine
from repro.machine.interconnect import BusInterconnect


def _error_codes(report):
    return sorted({d.code for d in report.errors})


class TestSeededDefects:
    def test_ddg_family_zero_distance_cycle(self):
        graph = Ddg(name="combinational")
        a = graph.add_node(Opcode.ALU, name="a")
        b = graph.add_node(Opcode.ALU, name="b")
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=0)
        report = lint_target(LintTarget(name=graph.name, ddg=graph))
        assert _error_codes(report) == ["DDG103"]
        assert len(report.errors) == 1
        assert report.exit_code != 0

    def test_mach_family_zero_capacity_channel(self, two_gp):
        class ZeroCapacityBus(BusInterconnect):
            def channel_resources(self):
                return {"bus": 0}

        machine = Machine(
            clusters=two_gp.clusters,
            interconnect=ZeroCapacityBus(bus_count=1),
            name="broken-bus",
        )
        report = lint_target(
            LintTarget(name=machine.name, machine=machine)
        )
        assert _error_codes(report) == ["MACH206"]
        assert len(report.errors) == 1
        assert report.exit_code != 0
