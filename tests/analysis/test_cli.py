"""Command-line interface."""

import errno
import os

import pytest

from repro.cli import main

LOOP_TEXT = """
ld:  load
mul: fp_mult <- ld
acc: fp_add  <- mul, acc@1
st:  store   <- acc
"""


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.txt"
    path.write_text(LOOP_TEXT)
    return str(path)


class TestCompileCommand:
    def test_compile_default_machine(self, loop_file, capsys):
        assert main(["compile", loop_file]) == 0
        out = capsys.readouterr().out
        assert "II = " in out
        assert "assignment:" in out
        assert "MaxLive" in out

    def test_compile_each_machine(self, loop_file, capsys):
        for machine in ("2gp", "4gp", "2fs", "4fs", "grid"):
            assert main(["compile", loop_file, "--machine", machine]) == 0

    def test_compile_with_variant(self, loop_file, capsys):
        assert main(
            ["compile", loop_file, "--variant", "simple"]
        ) == 0

    def test_compile_writes_dot(self, loop_file, tmp_path, capsys):
        dot_path = tmp_path / "out.dot"
        assert main(["compile", loop_file, "--dot", str(dot_path)]) == 0
        assert dot_path.read_text().startswith("digraph")

    def test_unknown_machine_exits(self, loop_file):
        with pytest.raises(SystemExit):
            main(["compile", loop_file, "--machine", "warp9"])

    def test_stdin_input(self, loop_file, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(LOOP_TEXT))
        assert main(["compile", "-"]) == 0


@pytest.fixture
def bad_opcode_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ld: load\nx: frobnicate <- ld\n")
    return str(path)


class TestBadLoopFiles:
    """Unreadable or malformed loop files exit with one line naming
    the path, not a traceback."""

    @pytest.mark.parametrize("command", ["compile", "lint"])
    def test_missing_file(self, command, tmp_path):
        missing = str(tmp_path / "missing.txt")
        with pytest.raises(SystemExit) as excinfo:
            main([command, missing])
        message = str(excinfo.value.code)
        assert message == f"{missing}: {os.strerror(errno.ENOENT)}"

    @pytest.mark.parametrize("command", ["compile", "lint"])
    def test_unknown_opcode(self, command, bad_opcode_file):
        with pytest.raises(SystemExit) as excinfo:
            main([command, bad_opcode_file])
        message = str(excinfo.value.code)
        assert message.startswith(
            f"{bad_opcode_file}: line 2: unknown opcode 'frobnicate'"
        )
        assert "\n" not in message

    @pytest.mark.parametrize("command", ["compile"])
    @pytest.mark.parametrize("text, code", [
        ("a: alu <- b\nb: alu <- a\n", "DDG103"),
        ("ld: load\nmov: copy <- ld\nst: store <- mov\n", "DDG109"),
    ], ids=["zero-distance-cycle", "input-copy"])
    def test_uncompilable_loop(self, command, text, code, tmp_path):
        # The file parses; the compile boundary rejects the loop.
        path = tmp_path / "bad.loop"
        path.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(path)])
        message = str(excinfo.value.code)
        assert message.startswith(f"{path}: {code} ")
        assert "\n" not in message


class TestStatsCommand:
    def test_stats(self, capsys):
        assert main(["stats", "--loops", "60"]) == 0
        out = capsys.readouterr().out
        assert "Nodes" in out
        assert "60 loops" in out


class TestExperimentCommand:
    def test_experiment(self, capsys):
        assert main(
            ["experiment", "--machine", "2gp", "--loops", "15"]
        ) == 0
        out = capsys.readouterr().out
        assert "x = 0" in out
        assert "match=" in out

    def test_experiment_json(self, capsys):
        import json

        assert main(
            ["experiment", "--machine", "2gp", "--loops", "10", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_loops"] == 10
        assert sum(doc["histogram"].values()) == 10
        assert doc["elapsed_seconds"] > 0
        assert doc["counters"]["experiment.loops"] == 10
        assert doc["counters"]["assign.placements"] > 0
        assert doc["phases"]["loop"]["count"] == 10

    def test_experiment_trace(self, capsys):
        assert main(
            ["experiment", "--loops", "5", "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "phase profile:" in out
        assert "experiment" in out


class TestExperimentEngineFlags:
    def test_workers_matches_serial_output(self, capsys):
        import json

        assert main(
            ["experiment", "--machine", "2gp", "--loops", "12", "--json"]
        ) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(
            ["experiment", "--machine", "2gp", "--loops", "12",
             "--workers", "2", "--json"]
        ) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["histogram"] == serial["histogram"]
        assert parallel["total_copies"] == serial["total_copies"]
        assert parallel["n_failed"] == 0

    def test_json_reports_failure_fields(self, capsys):
        import json

        assert main(
            ["experiment", "--machine", "2gp", "--loops", "8", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_failed"] == 0
        assert doc["cache_hits"] == 0
        assert doc["baseline_seconds"] >= 0
        assert "failures" not in doc

    def test_cache_dir_and_resume_round_trip(self, tmp_path, capsys):
        import json
        import os

        cache = str(tmp_path / "cache")
        os.makedirs(cache)
        args = ["experiment", "--machine", "2gp", "--loops", "10",
                "--cache-dir", cache, "--resume", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cache_hits"] == 0
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cache_hits"] == 10
        assert second["histogram"] == first["histogram"]

    def test_strict_flag_accepted_on_clean_suite(self, capsys):
        assert main(
            ["experiment", "--machine", "2gp", "--loops", "6",
             "--workers", "2", "--strict"]
        ) == 0
        assert "match=" in capsys.readouterr().out

    def test_timeout_flag_accepted(self, capsys):
        assert main(
            ["experiment", "--machine", "2gp", "--loops", "6",
             "--timeout", "30"]
        ) == 0
        assert "match=" in capsys.readouterr().out

    def test_campaign_accepts_engine_flags(self, capsys):
        assert main(
            ["campaign", "--loops", "8", "--skip-table3",
             "--workers", "2"]
        ) == 0
        assert "Figure" in capsys.readouterr().out

    def test_campaign_strict_aborts_on_failed_loop(self, capsys,
                                                   monkeypatch):
        import repro.analysis.experiment as experiment_module
        from repro.core import CompilationError
        from repro.workloads import paper_suite

        real = experiment_module.compile_loop
        doomed = paper_suite(3)[1].name

        def flaky(ddg, machine, *args, **kwargs):
            if ddg.name == doomed and not machine.is_unified:
                raise CompilationError("injected")
            return real(ddg, machine, *args, **kwargs)

        monkeypatch.setattr(experiment_module, "compile_loop", flaky)
        assert main(
            ["campaign", "--loops", "3", "--skip-table3", "--strict"]
        ) == 1
        captured = capsys.readouterr()
        assert "campaign aborted" in captured.err
        assert doomed in captured.err
        assert "Figure" not in captured.out


class TestTraceOutputs:
    def test_compile_trace_prints_span_tree(self, loop_file, capsys):
        assert main(["compile", loop_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "compile" in out
        assert "schedule" in out
        assert "counters:" in out
        assert "assign.placements" in out

    def test_compile_trace_out_writes_valid_jsonl(self, loop_file,
                                                  tmp_path, capsys):
        import json

        from repro import obs

        path = tmp_path / "trace.jsonl"
        assert main(
            ["compile", loop_file, "--trace-out", str(path)]
        ) == 0
        lines = path.read_text().splitlines()
        assert lines, "trace file is empty"
        events = [json.loads(line) for line in lines]
        assert all("ev" in event for event in events)
        rebuilt = obs.trace_from_events(obs.read_jsonl(str(path)))
        assert rebuilt.counter("sched.placements") > 0

    def test_compile_without_flags_prints_no_report(self, loop_file,
                                                    capsys):
        # The clustered compile is always traced (its stats lines read
        # the trace), but only --trace prints the report.
        assert main(["compile", loop_file]) == 0
        assert "phase profile:" not in capsys.readouterr().out

    def test_trace_subcommand(self, loop_file, capsys):
        # The report a trace run prints comes from ``compile --trace``.
        assert main(
            ["compile", loop_file, "--machine", "4gp", "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "II = " in out
        assert "trace:" in out
        assert "phase profile:" in out
        assert "driver.attempts" in out

    def test_trace_subcommand_writes_jsonl(self, loop_file, tmp_path,
                                           capsys):
        path = tmp_path / "out.jsonl"
        assert main(
            ["compile", loop_file, "--trace", "--trace-out", str(path)]
        ) == 0
        assert path.read_text().startswith('{"ev": "trace"')

    def test_trace_holds_the_clustered_compile_only(self, loop_file,
                                                    tmp_path, capsys):
        # The unified-baseline compile runs untraced, so one compile of
        # the 4-op loop reports one attempt and four placements.
        import re

        from repro import obs

        path = tmp_path / "out.jsonl"
        assert main(
            ["compile", loop_file, "--machine", "4gp", "--trace",
             "--trace-out", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert re.search(r"^ +driver\.attempts += 1$", out, re.M)
        assert re.search(r"^ +sched\.placements += 4$", out, re.M)
        roots = obs.read_trace(str(path)).roots
        assert [root.name for root in roots] == ["compile"]


class TestAssignmentStatsSurfaced:
    def test_compile_prints_assignment_stats(self, loop_file, capsys):
        assert main(["compile", loop_file]) == 0
        out = capsys.readouterr().out
        assert "assignment stats:" in out
        assert "placements=" in out
        assert "evictions=" in out
        assert "forced=" in out
        assert "scheduler stats:" in out

    @pytest.mark.parametrize("name, assignment, scheduler", [
        ("lk7_equation_of_state",
         "placements=22 forced=6 evictions=8 copies=10 (II attempts: 2)",
         "placements=24 displacements=0"),
        ("synth0001",
         "placements=16 forced=2 evictions=2 copies=6 (II attempts: 1)",
         "placements=21 displacements=1"),
    ])
    def test_stats_lines_count_the_final_attempt(
        self, name, assignment, scheduler, tmp_path, capsys,
    ):
        # The stats lines read the final attempt span's counters; these
        # values are the ones the per-attempt stats records printed.
        from repro.ddg.parse import format_loop
        from repro.workloads import bundled_corpus

        loop, = [ddg for ddg in bundled_corpus() if ddg.name == name]
        path = tmp_path / f"{name}.txt"
        path.write_text(format_loop(loop))
        assert main(["compile", str(path), "--machine", "grid"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"assignment stats: {assignment}" in lines
        assert f"scheduler stats: {scheduler}" in lines


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestChromeTraceFlag:
    def test_compile_trace_chrome_writes_envelope(self, loop_file,
                                                  tmp_path, capsys):
        import json

        path = tmp_path / "trace.chrome.json"
        assert main(
            ["compile", loop_file, "--trace-chrome", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert phases <= {"X", "C", "M"}
        assert "trace_id" in doc["otherData"]

    def test_parallel_experiment_chrome_has_worker_lanes(self, tmp_path,
                                                         capsys):
        import json

        path = tmp_path / "experiment.chrome.json"
        assert main(
            ["experiment", "--loops", "8", "--workers", "2",
             "--trace-chrome", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        x_tids = {
            event["tid"] for event in doc["traceEvents"]
            if event["ph"] == "X"
        }
        assert x_tids - {0}, "no worker lanes in the chrome trace"

    def test_trace_flag_prints_lane_table_for_workers(self, capsys):
        assert main(
            ["experiment", "--loops", "8", "--workers", "2", "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "worker lanes:" in out
        assert "q-wait" in out


class TestEmitAndSimulate:
    def test_emit_prints_pipelined_code(self, loop_file, capsys):
        assert main(["compile", loop_file, "--emit"]) == 0
        out = capsys.readouterr().out
        assert "PROLOGUE" in out
        assert "PREDICATED KERNEL" in out

    def test_simulate_reports_match(self, loop_file, capsys):
        assert main(["compile", loop_file, "--simulate", "5"]) == 0
        out = capsys.readouterr().out
        assert "ALL MATCH" in out

    def test_emit_and_simulate_on_grid(self, loop_file, capsys):
        assert main(
            ["compile", loop_file, "--machine", "grid",
             "--emit", "--simulate", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "ALL MATCH" in out
