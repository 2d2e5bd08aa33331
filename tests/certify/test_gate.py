"""The certify gate: driver attach, strict rejection, experiment
threading across worker counts, cache round-trips."""

import dataclasses

import pytest

from repro.analysis import EngineOptions, LoopOutcome, run_experiment
from repro.certify import (
    CertifyConfig,
    DEFAULT_CERTIFY,
    artifact_diagnostics,
    certify_compiled,
)
from repro.certify.check import CertIssue
from repro.core import CompilationError, compile_loop
from repro.service.cache import CACHE_VERSION, ShardedResultCache
from repro.workloads import bundled_corpus
from repro.workloads.fingerprint import certify_fingerprint


def small_corpus(n=6):
    return list(bundled_corpus())[:n]


class TestCertifyCompiled:
    def test_clean_compile_yields_ok_artifact(self, compiled_intro):
        artifact = certify_compiled(compiled_intro, DEFAULT_CERTIFY)
        assert artifact.ok
        assert len(artifact.issues) == 0
        assert artifact.exact is None  # oracle is opt-in
        assert artifact.exact_status == ""
        assert artifact.codes() == ()

    def test_exact_opt_in(self, compiled_intro):
        config = CertifyConfig(exact=True)
        artifact = certify_compiled(compiled_intro, config)
        assert artifact.exact is not None
        assert artifact.exact_status == "tight"

    def test_diagnostics_empty_for_clean_artifact(self, compiled_intro):
        artifact = certify_compiled(compiled_intro, DEFAULT_CERTIFY)
        assert artifact_diagnostics(artifact) == []

    def test_loose_ii_becomes_warning(self, chain3, two_gp):
        compiled = compile_loop(chain3, two_gp, min_ii=2)
        artifact = certify_compiled(
            compiled, CertifyConfig(exact=True)
        )
        assert artifact.ok  # loose is a warning, not a failure
        diags = artifact_diagnostics(artifact)
        assert [d.code for d in diags] == ["CERT690"]
        assert diags[0].severity == "warning"
        assert "II=1" in diags[0].message


class TestMalformedArtifacts:
    """The gate reports, never raises, on a loop it cannot describe."""

    def test_missing_copy_value_is_one_cert603(self, grid):
        from repro.workloads import build_kernel

        compiled = compile_loop(build_kernel("lk1_hydro"), grid)
        copy_id = compiled.annotated.copy_nodes[0]
        del compiled.annotated.copy_value_of[copy_id]
        artifact = certify_compiled(compiled)
        assert artifact.certificate is None
        assert [issue.code for issue in artifact.issues] == ["CERT603"]
        assert f"KeyError({copy_id})" in artifact.issues[0].message
        (diagnostic,) = artifact_diagnostics(artifact)
        assert diagnostic.is_error
        assert diagnostic.loop == "lk1_hydro"

    def test_strict_gate_turns_it_into_compilation_error(
        self, intro_example, two_gp, monkeypatch
    ):
        import repro.certify.gate as gate_mod

        def unassigned(compiled):
            raise KeyError(0)

        monkeypatch.setattr(gate_mod, "emit_certificate", unassigned)
        with pytest.raises(CompilationError, match="CERT603"):
            compile_loop(
                intro_example, two_gp,
                certify_config=CertifyConfig(strict=True),
            )


class TestDriverGate:
    def test_certificate_attached(self, intro_example, two_gp):
        compiled = compile_loop(
            intro_example, two_gp, certify_config=DEFAULT_CERTIFY
        )
        assert compiled.certified is not None
        assert compiled.certified.ok
        assert compiled.certificate is compiled.certified.certificate
        assert compiled.certificate.ii == compiled.ii

    def test_no_config_no_certificate(self, compiled_intro):
        assert compiled_intro.certified is None
        assert compiled_intro.certificate is None

    def test_strict_gate_rejects(
        self, intro_example, two_gp, monkeypatch
    ):
        import repro.certify.gate as gate_mod

        def forge(cert, ddg, machine):
            return [CertIssue(
                code="CERT605", location="row 0",
                message="slot double-booked (forged for test)",
            )]

        monkeypatch.setattr(gate_mod, "check_certificate", forge)
        with pytest.raises(CompilationError, match="certify gate"):
            compile_loop(
                intro_example, two_gp,
                certify_config=CertifyConfig(strict=True),
            )
        # Non-strict records the failure but does not raise.
        compiled = compile_loop(
            intro_example, two_gp, certify_config=DEFAULT_CERTIFY
        )
        assert not compiled.certified.ok
        assert compiled.certified.codes() == ("CERT605",)


class TestExperimentThreading:
    def test_outcomes_carry_cert_fields(self, two_gp):
        result = run_experiment(
            small_corpus(), two_gp,
            certify_config=CertifyConfig(exact=True),
        )
        assert result.total_cert_errors == 0
        assert result.cert_code_counts() == {}
        statuses = result.exact_status_counts()
        assert statuses and all(
            s in ("tight", "loose", "budget_exhausted", "skipped")
            for s in statuses
        )

    def test_without_config_fields_stay_default(self, two_gp):
        result = run_experiment(small_corpus(3), two_gp)
        for outcome in result.outcomes:
            assert outcome.cert_errors == 0
            assert outcome.cert_codes == ()
            assert outcome.exact_status == ""

    def test_engine_matches_serial(self, two_gp, reference_outcomes):
        # The gate's fields do not depend on where the loop ran, and
        # the gate does not change the measurement itself.
        config = CertifyConfig(exact=True)
        inline = run_experiment(
            small_corpus(), two_gp, certify_config=config
        )
        pooled = run_experiment(
            small_corpus(), two_gp, certify_config=config,
            options=EngineOptions(workers=2),
        )
        assert pooled.outcomes == inline.outcomes
        assert [
            (o.loop_name, o.unified_ii, o.clustered_ii, o.copies)
            for o in inline.outcomes
        ] == [
            (o.loop_name, o.unified_ii, o.clustered_ii, o.copies)
            for o in reference_outcomes(small_corpus(), two_gp)
        ]


class TestCacheKeys:
    def test_fingerprint_covers_every_knob(self):
        base = CertifyConfig()
        assert certify_fingerprint(None) is None
        prints = {
            certify_fingerprint(base),
            certify_fingerprint(dataclasses.replace(base, strict=True)),
            certify_fingerprint(dataclasses.replace(base, exact=True)),
            certify_fingerprint(
                dataclasses.replace(base, exact_node_budget=99)
            ),
            certify_fingerprint(
                dataclasses.replace(base, exact_backtrack_budget=1)
            ),
        }
        assert len(prints) == 5

    def test_cache_key_depends_on_certify_config(
        self, intro_example, two_gp, tmp_path
    ):
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        run_experiment([intro_example], two_gp, options=options)
        gated = run_experiment(
            [intro_example], two_gp, certify_config=DEFAULT_CERTIFY,
            options=options,
        )
        assert gated.cache_hits == 0
        assert len(ShardedResultCache(str(tmp_path), CACHE_VERSION)) == 2

    def test_cache_round_trips_cert_fields(self, two_gp, tmp_path):
        config = CertifyConfig(exact=True)
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        first = run_experiment(
            small_corpus(4), two_gp, certify_config=config,
            options=options,
        )
        second = run_experiment(
            small_corpus(4), two_gp, certify_config=config,
            options=options,
        )
        assert second.cache_hits == 4
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.cert_errors == b.cert_errors
            assert a.cert_codes == b.cert_codes
            assert a.exact_status == b.exact_status

    def test_result_cache_store_load(self, two_gp, tmp_path):
        cache = ShardedResultCache(str(tmp_path), CACHE_VERSION)
        result = run_experiment(
            small_corpus(1), two_gp,
            certify_config=CertifyConfig(exact=True),
        )
        outcome = result.outcomes[0]
        cache.put("key", dataclasses.asdict(outcome))
        loaded = LoopOutcome.from_doc(cache.get("key"))
        assert loaded == outcome
        assert loaded.cert_errors == outcome.cert_errors
        assert loaded.cert_codes == outcome.cert_codes
        assert loaded.exact_status == outcome.exact_status
