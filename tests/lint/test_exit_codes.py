"""Exit-code semantics: nonzero only for surviving errors.

A report is "failing" exactly when error-severity diagnostics remain
after config overrides — demoting lint's LINT001 (rule crash) or
``repro certify``'s LINT002 (compile failure) to a warning must unblock
the exit code, and ``--exit-zero`` reports without ever gating.
"""

import pytest

from repro.certify.gate import (
    CODE_COMPILE_FAILURE,
    DEFAULT_CERTIFY,
    certify_loop_report,
)
from repro.cli import main
from repro.core import HEURISTIC_ITERATIVE, CompilationError
from repro.lint import (
    CODE_RULE_CRASH,
    LintConfig,
    LintTarget,
    lint_target,
)
from repro.lint.registry import RULES, Rule, invalidate_rule_caches

DEFECTIVE_LOOP = """\
a: alu <- b
b: alu <- a
"""


@pytest.fixture
def defective_loop_file(tmp_path):
    path = tmp_path / "cycle.loop"
    path.write_text(DEFECTIVE_LOOP)
    return str(path)


@pytest.fixture
def crashing_rule():
    def explode(target, config):
        raise RuntimeError("boom")

    rule = Rule(
        code="DDG198", name="crash-demotion-test",
        default_severity="error", description="always crashes",
        check=explode,
    )
    RULES[rule.code] = rule
    invalidate_rule_caches()
    yield rule
    del RULES[rule.code]
    invalidate_rule_caches()


class TestSeverityDemotion:
    def test_rule_crash_demoted_to_warning(self, chain3, crashing_rule):
        config = LintConfig(severity={CODE_RULE_CRASH: "warning"})
        report = lint_target(
            LintTarget(name="x", ddg=chain3), config
        )
        crashes = [
            d for d in report.diagnostics if d.code == CODE_RULE_CRASH
        ]
        assert len(crashes) == 1
        assert crashes[0].severity == "warning"
        assert report.ok
        assert report.exit_code == 0

    def test_rule_crash_is_error_by_default(self, chain3, crashing_rule):
        report = lint_target(LintTarget(name="x", ddg=chain3))
        assert not report.ok
        assert report.exit_code == 1

    def test_compile_failure_demoted_to_warning(
        self, chain3, two_gp, monkeypatch
    ):
        import repro.core.driver as driver

        def refuse(*args, **kwargs):
            raise CompilationError("no schedule found")

        monkeypatch.setattr(driver, "compile_loop", refuse)
        report = certify_loop_report(
            chain3, two_gp, HEURISTIC_ITERATIVE, DEFAULT_CERTIFY,
            {CODE_COMPILE_FAILURE: "warning"},
        )
        assert [d.code for d in report.warnings] == \
            [CODE_COMPILE_FAILURE]
        assert report.ok
        assert report.exit_code == 0


class TestExitZero:
    def test_lint_exit_zero_on_defective_loop(
        self, defective_loop_file, capsys
    ):
        rc = main(["lint", defective_loop_file, "--exit-zero"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "DDG103" in out  # still reported, just not gating

    def test_lint_still_fails_without_it(
        self, defective_loop_file, capsys
    ):
        rc = main(["lint", defective_loop_file])
        capsys.readouterr()
        assert rc == 1

    def test_cli_severity_demotion_of_lint002(
        self, defective_loop_file, capsys
    ):
        # The cyclic loop does not compile, so certify reports LINT002;
        # demoted, it no longer gates: report-only run.
        rc = main([
            "certify", defective_loop_file,
            "--severity", "LINT002=warning",
            "--format", "json",
        ])
        import json

        doc = json.loads(capsys.readouterr().out)
        assert rc == 0, doc
        assert doc["summary"]["errors"] == 0
        assert [d["code"] for d in doc["diagnostics"]] == ["LINT002"]
