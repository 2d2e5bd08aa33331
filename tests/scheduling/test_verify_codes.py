"""Stable diagnostic codes on the independent schedule checker.

Each defect class produces exactly one violation carrying the stable
code of the certify section that caught it (``CERT603`` assignment,
``CERT604`` timing, ``CERT605`` occupancy), and ``assert_valid``
surfaces the code in its message -- so tests match on codes, not
prose.
"""

import pytest

from repro.ddg import Ddg, Opcode, trivial_annotation
from repro.scheduling import Schedule, assert_valid, check_schedule
from repro.scheduling.verify import Violation


class TestOversubscribedRow:
    def test_exactly_one_resource_diagnostic(self, uni8):
        graph = Ddg(name="wide")
        nodes = [graph.add_node(Opcode.ALU) for _ in range(9)]
        schedule = Schedule(
            annotated=trivial_annotation(graph, uni8),
            ii=2,
            start={n: 0 for n in nodes},
        )
        violations = check_schedule(schedule)
        assert len(violations) == 1
        assert violations[0].code == "CERT605"
        assert violations[0].kind == "resource"


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
        violations = check_schedule(schedule)
        assert len(violations) == 1
        assert violations[0].code == "CERT604"
        assert violations[0].kind == "dependence"
        assert "distance 1" in violations[0].detail


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
        violations = [
            v for v in check_schedule(compiled.schedule)
            if v.code == "CERT603"
        ]
        assert len(violations) == 1
        assert violations[0].kind == "structure"


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
        assert "resource" in str(exc.value)

    def test_handmade_violation_str_without_code(self):
        v = Violation(kind="resource", detail="d")
        assert str(v) == "[resource] d"

    def test_violation_str_with_code(self):
        v = Violation(kind="dependence", detail="d", code="CERT604")
        assert str(v) == "[dependence:CERT604] d"
