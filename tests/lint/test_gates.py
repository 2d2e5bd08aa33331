"""The ``--lint`` pipeline gates: driver, experiment, result cache."""

import dataclasses

import pytest

from repro.analysis import EngineOptions, run_experiment
from repro.analysis.experiment import LoopOutcome
from repro.service.cache import CACHE_VERSION, ShardedResultCache
from repro.workloads.fingerprint import lint_fingerprint
from repro.core import CompilationError, compile_loop
from repro.ddg import Ddg, Opcode
from repro.lint import DEFAULT_CONFIG, LintConfig
from repro.workloads import paper_suite


@pytest.fixture
def dead_value_loop():
    """A loop whose ALU result is never read (REG503 info)."""
    graph = Ddg(name="dead-value")
    load = graph.add_node(Opcode.LOAD, name="ld")
    alu = graph.add_node(Opcode.ALU, name="sum")
    graph.add_edge(load, alu, distance=0)
    return graph


class TestDriverGate:
    def test_report_attached(self, chain3, two_gp):
        compiled = compile_loop(
            chain3, two_gp, lint_config=DEFAULT_CONFIG
        )
        assert compiled.lint_report is not None
        assert compiled.lint_report.ok

    def test_no_gate_no_report(self, chain3, two_gp):
        assert compile_loop(chain3, two_gp).lint_report is None

    def test_strict_gate_rejects_promoted_error(
        self, dead_value_loop, two_gp
    ):
        config = LintConfig(
            strict=True, severity={"REG503": "error"}
        )
        with pytest.raises(CompilationError) as exc:
            compile_loop(dead_value_loop, two_gp, lint_config=config)
        assert "lint gate rejected" in str(exc.value)
        assert "REG503" in str(exc.value)

    def test_lenient_gate_records_but_compiles(
        self, dead_value_loop, two_gp
    ):
        config = LintConfig(severity={"REG503": "error"})
        compiled = compile_loop(
            dead_value_loop, two_gp, lint_config=config
        )
        assert not compiled.lint_report.ok
        assert "REG503" in compiled.lint_report.codes()


class TestExperimentGate:
    def test_outcomes_carry_lint_fields(self, two_gp):
        loops = paper_suite(4)
        result = run_experiment(
            loops, two_gp, lint_config=DEFAULT_CONFIG
        )
        assert result.total_lint_errors == 0
        for outcome in result.outcomes:
            assert outcome.lint_errors == 0
        # At least the codes tuple is populated when diagnostics fired;
        # a fully clean loop legitimately reports an empty tuple.
        assert result.lint_code_counts() == {
            code: count
            for code, count in result.lint_code_counts().items()
            if count > 0
        }

    def test_strict_lint_failure_recorded(
        self, dead_value_loop, two_gp
    ):
        config = LintConfig(
            strict=True, severity={"REG503": "error"}
        )
        result = run_experiment(
            [dead_value_loop], two_gp, lint_config=config
        )
        assert result.n_failed == 1
        assert "lint gate rejected" in result.outcomes[0].error

    def test_without_gate_fields_stay_zero(self, two_gp):
        result = run_experiment(paper_suite(2), two_gp)
        for outcome in result.outcomes:
            assert outcome.lint_errors == 0
            assert outcome.lint_codes == ()


class TestEngineGate:
    def test_inline_engine_honours_lint_config(
        self, dead_value_loop, two_gp
    ):
        result = run_experiment(
            [dead_value_loop], two_gp,
            lint_config=LintConfig(severity={"REG503": "error"}),
        )
        (outcome,) = result.outcomes
        assert outcome.lint_errors >= 1
        assert "REG503" in outcome.lint_codes

    def test_fingerprint_distinguishes_configs(self):
        assert lint_fingerprint(None) is None
        a = lint_fingerprint(DEFAULT_CONFIG)
        b = lint_fingerprint(LintConfig(disable=frozenset({"DDG105"})))
        assert a is not None and b is not None
        assert a != b
        assert lint_fingerprint(LintConfig()) == a

    def test_cache_key_varies_with_lint_config(
        self, chain3, two_gp, tmp_path
    ):
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        run_experiment([chain3], two_gp, options=options)
        gated = run_experiment(
            [chain3], two_gp, lint_config=DEFAULT_CONFIG,
            options=options,
        )
        assert gated.cache_hits == 0
        assert len(ShardedResultCache(str(tmp_path), CACHE_VERSION)) == 2

    def test_cache_roundtrips_lint_fields(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path), CACHE_VERSION)
        outcome = LoopOutcome(
            loop_name="x", unified_ii=3, clustered_ii=4, copies=2,
            lint_errors=1, lint_warnings=2,
            lint_codes=("DDG102", "SCHED402"),
        )
        cache.put("key", dataclasses.asdict(outcome))
        loaded = LoopOutcome.from_doc(cache.get("key"))
        assert loaded == outcome
        assert loaded.lint_codes == ("DDG102", "SCHED402")

    def test_cached_run_replays_lint_fields(
        self, dead_value_loop, two_gp, tmp_path
    ):
        lint_config = LintConfig(severity={"REG503": "error"})
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        first = run_experiment(
            [dead_value_loop], two_gp, lint_config=lint_config,
            options=options,
        )
        second = run_experiment(
            [dead_value_loop], two_gp, lint_config=lint_config,
            options=options,
        )
        assert second.cache_hits == 1
        assert (
            second.outcomes[0].lint_codes
            == first.outcomes[0].lint_codes
        )
