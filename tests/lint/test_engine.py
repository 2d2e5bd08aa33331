"""The lint engine: target availability, rule execution, reports."""

import pytest

from repro.lint import (
    CODE_RULE_CRASH,
    LintConfig,
    LintReport,
    LintTarget,
    lint_compiled,
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


class TestTargetAvailability:
    def test_empty_target(self):
        assert LintTarget().available == set()

    def test_ddg_only(self, chain3):
        assert LintTarget(ddg=chain3).available == {"ddg"}

    def test_machine_only(self, two_gp):
        assert LintTarget(machine=two_gp).available == {"machine"}


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
            description="always crashes", check=explode,
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

