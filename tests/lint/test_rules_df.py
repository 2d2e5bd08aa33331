"""Seeded defects for the DF7xx dataflow rule family.

Each test plants exactly one defect class and asserts the matching
stable code fires (and nothing else from the family).  Where sibling
families would legitimately fire on the same corrupt artifact, the run
is scoped with ``LintConfig(select=...)`` — which doubles as coverage
for prefix selection.  Copy chains that fail to deliver a value are
certify's to catch (``tests/certify/test_defect_matrix.py``).
"""

from repro.core import compile_loop
from repro.ddg import Ddg, Opcode, build_ddg
from repro.lint import LintConfig, LintTarget, lint_target
from repro.machine import (
    ClusterSpec,
    Machine,
    NoInterconnect,
    PointToPointInterconnect,
    fs_units,
    gp_units,
)


def _codes(diagnostics):
    return sorted({d.code for d in diagnostics})


class TestDeadValue:
    def test_df701_flags_dead_chain(self, two_gp):
        graph = Ddg(name="half-dead")
        load = graph.add_node(Opcode.LOAD, name="ld")
        live = graph.add_node(Opcode.ALU, name="live")
        dead = graph.add_node(Opcode.ALU, name="dead")
        store = graph.add_node(Opcode.STORE, name="st")
        graph.add_edge(load, live)
        graph.add_edge(live, store)
        graph.add_edge(load, dead)
        report = lint_target(
            LintTarget(name=graph.name, ddg=graph, machine=two_gp)
        )
        assert report.ok  # dead code is informational, not gating
        assert _codes(report.infos) == ["DF701"]
        assert f"node {dead}" == report.infos[0].location

    def test_clean_graph_stays_silent(self, chain3, two_gp):
        report = lint_target(
            LintTarget(name=chain3.name, ddg=chain3, machine=two_gp)
        )
        assert "DF701" not in report.codes()


class TestUnreachableConsumer:
    def _islanded_fs_machine(self):
        """The float-only cluster 1 is off the fabric: the only link
        connects the memory cluster 0 to the integer cluster 2."""
        return Machine(
            clusters=(
                ClusterSpec(0, fs_units(1, 1, 0)),
                ClusterSpec(1, fs_units(0, 0, 1)),
                ClusterSpec(2, fs_units(0, 2, 0)),
            ),
            interconnect=PointToPointInterconnect(links=[(0, 2)]),
            name="islanded-fs",
        )

    def test_df702_fires_before_assignment(self):
        graph = build_ddg(
            ops=[("ld", Opcode.LOAD), ("fma", Opcode.FP_ADD)],
            deps=[("ld", "fma", 0)],
            name="doomed",
        )
        machine = self._islanded_fs_machine()
        report = lint_target(
            LintTarget(name=graph.name, ddg=graph, machine=machine),
            LintConfig(select=frozenset({"DF702"})),
        )
        assert _codes(report.errors) == ["DF702"]
        assert len(report.errors) == 1
        assert "can never reach" in report.errors[0].message

    def test_connected_pair_passes(self, two_fs):
        graph = build_ddg(
            ops=[("ld", Opcode.LOAD), ("fma", Opcode.FP_ADD)],
            deps=[("ld", "fma", 0)],
            name="routable",
        )
        report = lint_target(
            LintTarget(name=graph.name, ddg=graph, machine=two_fs),
            LintConfig(select=frozenset({"DF702"})),
        )
        assert report.ok and not report.diagnostics


class TestRegisterPressure:
    def _tiny_regfile_machine(self, registers):
        return Machine(
            clusters=(
                ClusterSpec(0, gp_units(8), register_file=registers),
            ),
            interconnect=NoInterconnect(),
            name=f"uni8-r{registers}",
        )

    def test_df704_overflow_is_an_error(self, chain3):
        machine = self._tiny_regfile_machine(1)
        compiled = compile_loop(chain3, machine)
        report = lint_target(
            LintTarget(name=chain3.name, schedule=compiled.schedule),
            LintConfig(select=frozenset({"DF704"})),
        )
        assert _codes(report.errors) == ["DF704"]
        assert "cluster 0" == report.errors[0].location

    def test_df704_silent_when_file_fits(self, chain3):
        machine = self._tiny_regfile_machine(64)
        compiled = compile_loop(chain3, machine)
        report = lint_target(
            LintTarget(name=chain3.name, schedule=compiled.schedule),
            LintConfig(select=frozenset({"DF704"})),
        )
        assert report.ok and not report.diagnostics

    def test_df704_exempts_unbounded_files(self, chain3, uni8):
        compiled = compile_loop(chain3, uni8)
        report = lint_target(
            LintTarget(name=chain3.name, schedule=compiled.schedule),
            LintConfig(select=frozenset({"DF704"})),
        )
        assert report.ok and not report.diagnostics
