"""Stable diagnostic codes on the independent schedule checker.

Each defect class produces exactly one certify issue carrying the
stable code of the section that caught it (``CERT603`` assignment,
``CERT604`` timing, ``CERT605`` occupancy), and ``assert_valid``
surfaces the code in its message -- so tests match on codes, not
prose.
"""

import pytest

from repro.ddg import Ddg, Opcode, trivial_annotation
from repro.certify.check import CertIssue
from repro.scheduling import Schedule, assert_valid, check_schedule


class TestOversubscribedRow:
    def test_exactly_one_resource_diagnostic(self, uni8):
        graph = Ddg(name="wide")
        nodes = [graph.add_node(Opcode.ALU) for _ in range(9)]
        schedule = Schedule(
            annotated=trivial_annotation(graph, uni8),
            ii=2,
            start={n: 0 for n in nodes},
        )
        issues = check_schedule(schedule)
        assert len(issues) == 1
        assert issues[0].code == "CERT605"
        assert issues[0].location == "('issue', 0, 'gp') row 0"


class TestViolatedBackEdge:
    def test_exactly_one_dependence_diagnostic(self, uni8):
        # A 3-cycle FP multiply feeding itself one iteration later:
        # at II 1 its start must trail itself by latency - II = 2.
        graph = Ddg(name="self-recurrence")
        mul = graph.add_node(Opcode.FP_MULT, name="mul")
        graph.add_edge(mul, mul, distance=1)
        schedule = Schedule(
            annotated=trivial_annotation(graph, uni8),
            ii=1,
            start={mul: 0},
        )
        issues = check_schedule(schedule)
        assert len(issues) == 1
        assert issues[0].code == "CERT604"
        assert issues[0].location == f"edge {mul}->{mul}"
        assert "distance 1" in issues[0].message


class TestStructurallyInvalidGraph:
    def test_exactly_one_structure_diagnostic(self, chain3, two_gp):
        from repro.core import compile_loop

        compiled = compile_loop(chain3, two_gp)
        annotated = compiled.schedule.annotated
        # Tear the chain's sink off its cluster onto the other: its one
        # incoming value now crosses clusters with no copy.
        victim = next(
            e.dst for e in annotated.ddg.edges
            if annotated.cluster_of[e.src] == annotated.cluster_of[e.dst]
            and annotated.ddg.node(e.src).produces_value
            and not annotated.ddg.out_edges(e.dst)
        )
        annotated.cluster_of[victim] = (
            1 - annotated.cluster_of[victim]
        )
        issues = [
            issue for issue in check_schedule(compiled.schedule)
            if issue.code == "CERT603"
        ]
        assert len(issues) == 1
        assert "without a copy" in issues[0].message


class TestCodesInMessages:
    def test_assert_valid_message_carries_codes(self, uni8):
        graph = Ddg(name="wide")
        nodes = [graph.add_node(Opcode.ALU) for _ in range(9)]
        schedule = Schedule(
            annotated=trivial_annotation(graph, uni8),
            ii=2,
            start={n: 0 for n in nodes},
        )
        with pytest.raises(AssertionError) as exc:
            assert_valid(schedule)
        assert "CERT605" in str(exc.value)
        assert "double-booked" in str(exc.value)

    def test_issue_str_with_code(self):
        issue = CertIssue("CERT604", "edge 0->1", "d")
        assert str(issue) == "CERT604 [edge 0->1] d"
