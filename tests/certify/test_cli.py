"""The ``repro certify`` subcommand and the ``--certify`` gates."""

import json

import pytest

from repro.cli import main

CLEAN_LOOP = """\
ld:  load
mul: fp_mult <- ld
st:  store   <- mul
"""

#: A combinational cycle: the loop does not compile (LINT002).
DEFECTIVE_LOOP = """\
a: alu <- b
b: alu <- a
"""

SMALL_CORPUS = """\
== alpha ==
ld:  load
mul: fp_mult <- ld
st:  store   <- mul

== beta ==
a: alu
b: alu <- a
c: alu <- b
d: store <- c

== gamma ==
x: load
y: fp_div <- x
z: store <- y
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


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "small.corpus"
    path.write_text(SMALL_CORPUS)
    return str(path)


class TestCertifyCommand:
    def test_clean_loop_exits_zero(self, clean_loop_file, capsys):
        rc = main(["certify", clean_loop_file, "--machine", "2gp"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_json_report(self, clean_loop_file, capsys):
        rc = main([
            "certify", clean_loop_file, "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["summary"]["errors"] == 0
        assert doc["summary"]["ok"] is True

    def test_sarif_has_cert_rules(self, clean_loop_file, capsys):
        rc = main([
            "certify", clean_loop_file, "--format", "sarif",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        ids = {r["id"] for r in rules}
        assert {f"CERT60{n}" for n in range(7)} | {"CERT690"} <= ids

    def test_uncompilable_loop_exits_nonzero(
        self, defective_loop_file, capsys
    ):
        rc = main([
            "certify", defective_loop_file, "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert "LINT002" in {d["code"] for d in doc["diagnostics"]}

    def test_exit_zero_forces_success(
        self, defective_loop_file, capsys
    ):
        rc = main([
            "certify", defective_loop_file, "--exit-zero",
        ])
        capsys.readouterr()
        assert rc == 0

    def test_exact_flags_accepted(self, clean_loop_file, capsys):
        rc = main([
            "certify", clean_loop_file, "--exact",
            "--exact-budget", "20", "--exact-backtracks", "5000",
        ])
        capsys.readouterr()
        assert rc == 0

    def test_kernels_on_both_machines(self, capsys):
        for machine in ("2gp", "grid"):
            rc = main([
                "certify", "--kernels", "--suite", "2",
                "--machine", machine, "--format", "json",
            ])
            doc = json.loads(capsys.readouterr().out)
            assert rc == 0, doc
            assert doc["summary"]["errors"] == 0

    def test_output_file(self, clean_loop_file, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        rc = main([
            "certify", clean_loop_file, "--format", "json",
            "--output", str(out_file),
        ])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert doc["summary"]["ok"] is True


class TestDeterministicFanOut:
    """Satellite 2: --workers N must be byte-identical to serial."""

    @pytest.mark.parametrize("fmt", ["json", "sarif"])
    def test_certify_workers_byte_identical(
        self, corpus_file, fmt, capsys
    ):
        rc = main(["certify", corpus_file, "--format", fmt])
        serial = capsys.readouterr().out
        assert rc == 0
        rc = main([
            "certify", corpus_file, "--format", fmt,
            "--workers", "2",
        ])
        fanned = capsys.readouterr().out
        assert rc == 0
        assert fanned == serial


class TestPipelineGates:
    def test_compile_certify_reports(self, clean_loop_file, capsys):
        rc = main([
            "compile", clean_loop_file, "--machine", "2gp",
            "--certify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "certificate: verified" in out

    def test_experiment_certify_gate(self, capsys):
        rc = main([
            "experiment", "--loops", "4", "--machine", "2gp",
            "--certify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "certify gate: 0 certificate failure(s)" in out

    def test_experiment_json_carries_certify_block(self, capsys):
        rc = main([
            "experiment", "--loops", "4", "--machine", "2gp",
            "--certify", "--json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["certify"]["errors"] == 0
