"""Independent schedule checker."""

import pytest

from repro.ddg import trivial_annotation
from repro.scheduling import (
    Schedule,
    assert_valid,
    check_schedule,
    modulo_schedule,
)


@pytest.fixture
def valid_schedule(chain3, uni8):
    schedule = modulo_schedule(trivial_annotation(chain3, uni8), ii=2)
    assert schedule is not None
    return schedule


class TestCleanSchedules:
    def test_no_violations(self, valid_schedule):
        assert check_schedule(valid_schedule) == []

    def test_assert_valid_passes(self, valid_schedule):
        assert_valid(valid_schedule)


class TestDependenceViolations:
    def test_latency_violation_detected(self, chain3, uni8):
        annotated = trivial_annotation(chain3, uni8)
        ld, mul, st = chain3.node_ids
        bad = Schedule(
            annotated=annotated, ii=4,
            start={ld: 0, mul: 1, st: 10},  # mul starts before load done
        )
        issues = check_schedule(bad)
        assert any(issue.code == "CERT604" for issue in issues)

    def test_loop_carried_slack_allows_earlier_start(
        self, accumulator, uni8
    ):
        annotated = trivial_annotation(accumulator, uni8)
        ld, acc = accumulator.node_ids
        # acc -> acc at distance 1 with II 2: needs start >= start+1-2, ok.
        schedule = Schedule(
            annotated=annotated, ii=2, start={ld: 0, acc: 2}
        )
        assert check_schedule(schedule) == []

    def test_assert_valid_raises_with_details(self, chain3, uni8):
        annotated = trivial_annotation(chain3, uni8)
        ld, mul, st = chain3.node_ids
        bad = Schedule(
            annotated=annotated, ii=4, start={ld: 0, mul: 0, st: 0}
        )
        with pytest.raises(AssertionError) as exc:
            assert_valid(bad)
        assert "CERT604" in str(exc.value)
        assert "dependence" in str(exc.value)


class TestResourceViolations:
    def test_oversubscribed_row_detected(self, uni8):
        from repro.ddg import Ddg, Opcode
        graph = Ddg()
        nodes = [graph.add_node(Opcode.ALU) for _ in range(9)]
        annotated = trivial_annotation(graph, uni8)
        # All 9 ALUs in the same row of an 8-wide machine.
        bad = Schedule(
            annotated=annotated, ii=2, start={n: 0 for n in nodes}
        )
        issues = check_schedule(bad)
        assert any(issue.code == "CERT605" for issue in issues)

    def test_wrapped_rows_checked_modulo_ii(self, uni8):
        from repro.ddg import Ddg, Opcode
        graph = Ddg()
        nodes = [graph.add_node(Opcode.ALU) for _ in range(9)]
        annotated = trivial_annotation(graph, uni8)
        # Cycles 0 and 2 share row 0 at II 2.
        starts = {n: (0 if i < 5 else 2) for i, n in enumerate(nodes)}
        bad = Schedule(annotated=annotated, ii=2, start=starts)
        assert any(issue.code == "CERT605" for issue in check_schedule(bad))

    def test_violation_str_is_informative(self, uni8):
        from repro.ddg import Ddg, Opcode
        graph = Ddg()
        nodes = [graph.add_node(Opcode.ALU) for _ in range(9)]
        annotated = trivial_annotation(graph, uni8)
        bad = Schedule(annotated=annotated, ii=1, start={n: 0 for n in nodes})
        issue = check_schedule(bad)[0]
        assert "issue" in str(issue)
