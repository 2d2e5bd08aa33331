"""Self-test of the ledger benchmark at a small size.

Runs every workload on a 24-loop suite with a tiny time budget and
checks the contract ``BENCHMARK.json`` declares: every metric printed
with its unit, traced counts that repeat exactly, a wrong output that
fails the run, and the reference-sample check at a non-golden seed.

Run: ``python -m pytest benchmarks/ledger -q`` (about 20 s).
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SMALL = ["--loops", "24", "--seconds", "0.3", "--seed", "7"]
#: Counts that depend on request timing (micro-batch boundaries).
TIMING_DEPENDENT = {"service.pool.calls", "service.pool.batches"}


def run_ledger(workload: str, trace: int):
    """(exit code, stdout lines, parsed last line) of one small run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", str(trace), *SMALL],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    traced = {w: [run_ledger(w, 1), run_ledger(w, 1)] for w in WORKLOADS}
    plain = {w: run_ledger(w, 0) for w in WORKLOADS}
    return plain, traced


def _assert_declared(lines, doc, declared):
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert doc["metrics"][name]["unit"] == unit, name
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in lines
        ), f"{name} not printed with its unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(runs, workload):
    code, lines, doc = runs[0][workload]
    assert code == 0 and doc["correct"] and doc["failed"] == 0
    assert doc["attempted"] >= 24
    _assert_declared(lines, doc, DECLARED["end_to_end"])
    # --seed 7 has no golden file: the reference sample was checked.
    assert any("against the reference pipeline" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_printed_and_counts_repeat(runs, workload):
    (code, lines, first), (_, _, second) = runs[1][workload]
    assert code == 0 and first["correct"]
    _assert_declared(lines, first, DECLARED["per_layer"])
    counts = [
        name for name, metric in first["metrics"].items()
        if metric["unit"] in ("count", "ops", "cycles")
        and name not in TIMING_DEPENDENT
    ]
    assert counts
    for name in counts:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


@pytest.mark.parametrize("mutation", ["mislabelled", "later"])
def test_wrong_ii_fails_the_run(monkeypatch, capsys, mutation):
    """Both a mislabelled II and a valid schedule at a later II than the
    reference's (which certifies cleanly) must count as wrong."""
    spec = importlib.util.spec_from_file_location(
        "ledger_run", HERE / "run.py")
    ledger = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, ledger)
    spec.loader.exec_module(ledger)
    from repro.core import driver

    compile_loop = driver.compile_loop

    def wrong_ii(ddg, machine, **kwargs):
        compiled = compile_loop(ddg, machine, **kwargs)
        if mutation == "later":
            return compile_loop(ddg, machine, min_ii=compiled.ii + 1,
                                **kwargs)
        compiled.ii += 1
        return compiled

    monkeypatch.setattr(driver, "compile_loop", wrong_ii)
    code = ledger.main(["--workload", "corpus-2gp", *SMALL])
    out = capsys.readouterr().out
    assert code != 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    wrong_frac = float(out.split("wrong_frac")[1].split()[0])
    assert wrong_frac > 0
