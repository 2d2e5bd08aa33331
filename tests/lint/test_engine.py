"""The lint engine: target availability, rule execution, reports."""

import pytest

from repro.core import CompilationError
from repro.lint import (
    CODE_COMPILE_FAILURE,
    CODE_RULE_CRASH,
    DEFAULT_CONFIG,
    LintConfig,
    LintReport,
    LintTarget,
    lint_compiled,
    lint_corpus_deep,
    lint_loop_deep,
    lint_machine,
    lint_target,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import (
    RULES,
    Rule,
    all_rules,
    invalidate_rule_caches,
)
from repro.machine import (
    ClusterSpec,
    Machine,
    PointToPointInterconnect,
    gp_units,
)
from repro.service.tasks import lint_loop


class TestTargetAvailability:
    def test_empty_target(self):
        assert LintTarget().available == set()

    def test_ddg_only(self, chain3):
        assert LintTarget(ddg=chain3).available == {"graph"}

    def test_machine_only(self, two_gp):
        assert LintTarget(machine=two_gp).available == {"machine"}

    def test_annotated_exposes_graph_and_machine(self, compiled_chain):
        target = LintTarget(annotated=compiled_chain.annotated)
        assert target.available == {"graph", "machine", "annotated"}
        assert target.graph is compiled_chain.annotated.ddg
        assert target.effective_machine is compiled_chain.machine

    def test_schedule_exposes_machine_but_not_graph(self, compiled_chain):
        # A schedule-only target carries its machine (the schedule's
        # annotated graph names it) but not the input graph: the
        # annotated graph differs from the input graph (copies).
        target = LintTarget(schedule=compiled_chain.schedule)
        assert target.available == {"machine", "schedule"}


class TestLintTarget:
    def test_clean_compiled_loop_is_ok(self, compiled_chain):
        report = lint_compiled(compiled_chain)
        assert report.ok
        assert report.exit_code == 0
        assert report.rules_run > 0

    def test_clean_machines(self, two_gp, grid, uni8):
        for machine in (two_gp, grid, uni8):
            report = lint_machine(machine)
            assert report.ok, report.diagnostics

    def test_disabled_rules_do_not_run(self, chain3):
        config = LintConfig(
            disable=frozenset(r.code for r in all_rules())
        )
        report = lint_target(LintTarget(ddg=chain3), config)
        assert report.rules_run == 0

    def test_rule_crash_is_contained(self, chain3):
        def explode(target, config):
            raise RuntimeError("boom")

        crashing = Rule(
            code="DDG199", name="crash-test", default_severity="error",
            description="always crashes", requires=frozenset({"graph"}),
            check=explode, artifact="ddg",
        )
        RULES[crashing.code] = crashing
        invalidate_rule_caches()
        try:
            report = lint_target(LintTarget(name="x", ddg=chain3))
        finally:
            del RULES[crashing.code]
            invalidate_rule_caches()
        crashes = [
            d for d in report.diagnostics if d.code == CODE_RULE_CRASH
        ]
        assert len(crashes) == 1
        assert "DDG199" in crashes[0].message
        assert not report.ok


class TestLintReport:
    def _diag(self, code, severity):
        return Diagnostic(code=code, severity=severity, message="m")

    def test_severity_buckets_and_codes(self):
        report = LintReport(
            diagnostics=[
                self._diag("DDG101", "error"),
                self._diag("DDG102", "warning"),
                self._diag("DDG106", "info"),
            ],
            n_targets=1, rules_run=3,
        )
        assert [d.code for d in report.errors] == ["DDG101"]
        assert [d.code for d in report.warnings] == ["DDG102"]
        assert [d.code for d in report.infos] == ["DDG106"]
        assert report.codes() == ["DDG101", "DDG102", "DDG106"]
        assert not report.ok
        assert report.exit_code == 1

    def test_extend_merges(self):
        a = LintReport(
            diagnostics=[self._diag("DDG101", "error")],
            n_targets=1, rules_run=2,
        )
        b = LintReport(n_targets=2, rules_run=5)
        a.extend(b)
        assert a.n_targets == 3
        assert a.rules_run == 7
        assert len(a.diagnostics) == 1

    def test_summary_mentions_counts(self):
        report = LintReport(n_targets=4, rules_run=9)
        text = report.summary()
        assert "4 target(s)" in text
        assert "9 rule" in text
        assert "0 error(s)" in text

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="DDG101", severity="fatal", message="m")


class TestDeepLint:
    def test_clean_loop_single_logical_target(self, chain3, two_gp):
        report = lint_loop_deep(chain3, two_gp)
        assert report.ok
        assert report.n_targets == 1

    def test_graph_errors_skip_compilation(self, two_gp):
        from repro.ddg import Ddg, Opcode

        graph = Ddg(name="combinational")
        a = graph.add_node(Opcode.ALU)
        b = graph.add_node(Opcode.ALU)
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=0)
        report = lint_loop_deep(graph, two_gp)
        assert [d.code for d in report.errors] == ["DDG103"]
        # No schedule-level diagnostics: the pipeline never ran.
        assert not any(
            d.code.startswith("SCHED4") for d in report.diagnostics
        )

    def test_compile_failure_becomes_lint002(
        self, chain3, two_gp, monkeypatch
    ):
        import repro.core.driver as driver

        def refuse(*args, **kwargs):
            raise CompilationError("no schedule found")

        monkeypatch.setattr(driver, "compile_loop", refuse)
        report = lint_loop_deep(chain3, two_gp)
        assert [d.code for d in report.errors] == [CODE_COMPILE_FAILURE]

    def test_corpus_lints_machine_once(self, chain3, accumulator, two_gp):
        report = lint_corpus_deep([chain3, accumulator], two_gp)
        assert report.ok
        # machine target + one logical target per loop
        assert report.n_targets == 3


class TestDeepLintReportsOnce:
    """Deep lint runs the machine rules once per run, the graph rules
    once per loop, and only the schedule rules on the compiled loop."""

    @staticmethod
    def _stranded_machine():
        """Cluster 1 is off the fabric: the only link joins 0 and 2,
        so the pairs 0-1 and 1-2 are unroutable (two MACH203s).  The
        compile boundary rejects the machine, so no loop is compiled."""
        return Machine(
            clusters=tuple(ClusterSpec(i, gp_units(2)) for i in range(3)),
            interconnect=PointToPointInterconnect(links=[(0, 2)]),
            name="stranded",
        )

    def test_crashing_graph_rule_reported_once_per_loop(
        self, chain3, accumulator, two_gp
    ):
        def explode(target, config):
            raise RuntimeError("boom")

        RULES["DDG199"] = Rule(
            code="DDG199", name="crash-test", default_severity="error",
            description="always crashes", requires=frozenset({"graph"}),
            check=explode, artifact="ddg",
        )
        invalidate_rule_caches()
        try:
            # Demoted, the crash no longer stops the loop compiling.
            config = LintConfig(severity={CODE_RULE_CRASH: "warning"})
            report = lint_corpus_deep([chain3, accumulator], two_gp, config)
        finally:
            del RULES["DDG199"]
            invalidate_rule_caches()
        crashes = [
            d.loop for d in report.diagnostics if d.code == CODE_RULE_CRASH
        ]
        assert sorted(crashes) == sorted([chain3.name, accumulator.name])
        assert report.ok

    def test_stranded_cluster_reported_once_per_run(
        self, chain3, accumulator
    ):
        machine = self._stranded_machine()
        report = lint_corpus_deep([chain3, accumulator], machine)
        unroutable = [
            (d.loop, d.location)
            for d in report.diagnostics if d.code == "MACH203"
        ]
        assert unroutable == [
            ("stranded", "clusters 0<->1"), ("stranded", "clusters 1<->2"),
        ]
        # No loop was compiled on the rejected machine, so no LINT002
        # repeats its defect per loop, and no other finding either.
        assert report.codes() == ["MACH203"]
        # The pool task of ``repro lint --workers`` is one loop's
        # share: no machine findings (the parent lints the machine).
        loop_report = lint_loop((chain3, machine, DEFAULT_CONFIG, None))
        assert loop_report.diagnostics == []
