"""The ``repro lint`` subcommand and the ``--lint`` pipeline gates."""

import json

import pytest

from repro.cli import main

CLEAN_LOOP = """\
ld:  load
mul: fp_mult <- ld
st:  store   <- mul
"""

#: A combinational cycle: both edges at distance 0 (DDG103).
DEFECTIVE_LOOP = """\
a: alu <- b
b: alu <- a
"""


@pytest.fixture
def clean_loop_file(tmp_path):
    path = tmp_path / "clean.loop"
    path.write_text(CLEAN_LOOP)
    return str(path)


@pytest.fixture
def defective_loop_file(tmp_path):
    path = tmp_path / "cycle.loop"
    path.write_text(DEFECTIVE_LOOP)
    return str(path)


class TestLintCommand:
    def test_clean_loop_exits_zero(self, clean_loop_file, capsys):
        rc = main(["lint", clean_loop_file, "--machine", "2gp"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_defective_loop_exits_nonzero(
        self, defective_loop_file, capsys
    ):
        rc = main([
            "lint", defective_loop_file, "--format", "json",
        ])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in doc["diagnostics"]}
        assert "DDG103" in codes
        assert doc["summary"]["ok"] is False

    def test_disable_silences_a_rule(self, defective_loop_file, capsys):
        rc = main([
            "lint", defective_loop_file, "--disable", "DDG103",
        ])
        capsys.readouterr()
        assert rc == 0

    def test_severity_demotion_unblocks_exit(
        self, defective_loop_file, capsys
    ):
        rc = main([
            "lint", defective_loop_file,
            "--severity", "DDG103=warning", "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["summary"]["warnings"] >= 1

    def test_malformed_severity_flag_rejected(self, clean_loop_file):
        with pytest.raises(SystemExit):
            main([
                "lint", clean_loop_file, "--severity", "DDG103",
            ])

    def test_fast_pass_emits_json(self, clean_loop_file, capsys):
        rc = main(["lint", clean_loop_file, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["summary"]["ok"] is True

    def test_sarif_output_file(self, clean_loop_file, tmp_path, capsys):
        out_file = tmp_path / "report.sarif"
        rc = main([
            "lint", clean_loop_file, "--format", "sarif",
            "--output", str(out_file),
        ])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert doc["version"] == "2.1.0"

    def test_kernels_on_both_preset_machines(self, capsys):
        # The acceptance sweep (bused + point-to-point) over the
        # hand-written paper kernels; the full bundled corpus runs in
        # CI where the wall-time budget is larger.
        for machine in ("2gp", "grid"):
            rc = main([
                "lint", "--kernels", "--suite", "2",
                "--machine", machine, "--format", "json",
            ])
            doc = json.loads(capsys.readouterr().out)
            assert rc == 0, doc
            assert doc["summary"]["errors"] == 0

    def test_compiles_nothing(self, monkeypatch, capsys):
        # Lint reads inputs only: the machine once and every loop's
        # graph, while any compile would raise.
        from repro.workloads import all_kernels, paper_suite

        def refuse(*args, **kwargs):
            raise AssertionError("repro lint compiled a loop")

        monkeypatch.setattr("repro.core.driver.compile_loop", refuse)
        monkeypatch.setattr("repro.cli.compile_loop", refuse)
        loops = {ddg.name for ddg in paper_suite(200) + all_kernels()}
        for machine in ("2gp", "grid"):
            rc = main([
                "lint", "--suite", "200", "--kernels",
                "--machine", machine, "--format", "json",
            ])
            doc = json.loads(capsys.readouterr().out)
            assert rc == 0, doc
            assert doc["summary"]["targets"] == 1 + len(loops)


class TestRuleSelection:
    def test_rule_prefix_scopes_the_run(
        self, defective_loop_file, capsys
    ):
        # The loop carries a DDG103 defect, but a MACH2-only run must
        # not see it...
        rc = main([
            "lint", defective_loop_file, "--rule", "MACH2",
        ])
        capsys.readouterr()
        assert rc == 0
        # ...while selecting its own family keeps the gate shut.
        rc = main([
            "lint", defective_loop_file, "--rule", "DDG1",
        ])
        capsys.readouterr()
        assert rc == 1

    def test_rule_accepts_exact_codes_and_repeats(self, tmp_path, capsys):
        # The DDG103 cycle plus an isolated node (DDG105).
        path = tmp_path / "cycle-and-island.loop"
        path.write_text(DEFECTIVE_LOOP + "c: alu\n")
        rc = main([
            "lint", str(path), "--format", "json",
            "--rule", "DDG103", "--rule", "DDG105",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        by_severity = {}
        for d in doc["diagnostics"]:
            by_severity.setdefault(d["severity"], set()).add(d["code"])
        assert by_severity == {
            "error": {"DDG103"}, "warning": {"DDG105"},
        }


class TestUnknownCodes:
    """A code no rule answers to exits with a one-line message
    instead of silently linting nothing."""

    def _rejects(self, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert code in message

    def test_rule_flag(self, clean_loop_file):
        self._rejects(
            ["lint", clean_loop_file, "--rule", "DF74"], "DF74"
        )

    def test_disable_flag(self, clean_loop_file):
        self._rejects(
            ["lint", clean_loop_file, "--disable", "DF701"],
            "DF701",
        )

    def test_severity_flag(self, clean_loop_file):
        # Deleted codes, and LINT002, which only certify reports.
        for code in ("SCHED490", "SCHED406", "LINT002"):
            self._rejects(
                ["lint", clean_loop_file, "--severity", f"{code}=warning"],
                code,
            )

    def test_certify_severity_flag(self, clean_loop_file):
        # certify reports CERT6xx and LINT002 only; a lint code is
        # as unknown to it as a typo.
        self._rejects(
            ["certify", clean_loop_file, "--severity", "DDG103=warning"],
            "DDG103",
        )
        rc = main([
            "certify", clean_loop_file,
            "--severity", "CERT690=info", "--severity", "LINT002=warning",
        ])
        assert rc == 0


class TestCompileGate:
    def test_compile_with_lint_reports(self, clean_loop_file, capsys):
        rc = main([
            "compile", clean_loop_file, "--machine", "2gp", "--lint",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lint:" in out

    def test_strict_gate_rejects(self, tmp_path, capsys):
        # Promote the isolated-node warning to an error: the ALU has
        # no edges, so the strict gate must refuse the compile.
        path = tmp_path / "island.loop"
        path.write_text("ld: load\nst: store <- ld\nidle: alu\n")
        rc = main([
            "compile", str(path), "--lint", "strict",
            "--severity", "DDG105=error",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "lint gate rejected" in captured.err
        assert "DDG105" in captured.err


class TestExperimentGate:
    def test_experiment_with_lint_gate(self, capsys):
        rc = main([
            "experiment", "--loops", "4", "--machine", "2gp", "--lint",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lint gate: 0 error(s)" in out

    def test_experiment_json_carries_lint_block(self, capsys):
        rc = main([
            "experiment", "--loops", "4", "--machine", "2gp",
            "--lint", "--json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["lint"]["errors"] == 0
