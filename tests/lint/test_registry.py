"""The rule registry: stable codes, families, configuration policy."""

import re

import pytest

from repro.lint import (
    DEFAULT_CONFIG,
    FAMILIES,
    LintConfig,
    all_rules,
    rules_in_family,
)

CODE_PATTERN = re.compile(
    r"^(DDG1|MACH2)\d\d$"
)

KNOWN_ARTIFACTS = {"ddg", "machine"}


class TestRegistry:
    def test_every_code_is_well_formed(self):
        for rule in all_rules():
            assert CODE_PATTERN.match(rule.code), rule.code

    def test_codes_are_unique_and_sorted(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))

    def test_every_family_has_rules(self):
        for prefix in FAMILIES:
            assert rules_in_family(prefix), f"no rules under {prefix}"

    def test_rule_count_is_stable(self):
        # Adding a rule is fine -- bump this count alongside the
        # docs/LINTING.md catalog so they cannot drift apart.
        assert len(all_rules()) == 15

    def test_family_property_matches_prefix(self):
        for rule in all_rules():
            assert rule.code.startswith(rule.family)
            assert rule.family in FAMILIES

    def test_requirements_name_known_artifacts(self):
        for rule in all_rules():
            assert rule.artifact in KNOWN_ARTIFACTS, rule.code

    def test_descriptions_and_names_present(self):
        for rule in all_rules():
            assert rule.name
            assert rule.description


class TestLintConfig:
    def _rule(self, code):
        return next(r for r in all_rules() if r.code == code)

    def test_default_runs_default_on_rules(self):
        # Every registered rule is on by default.
        assert all(DEFAULT_CONFIG.is_enabled(r) for r in all_rules())

    def test_select_restricts_to_prefix(self):
        config = LintConfig(select=frozenset({"DDG1"}))
        assert config.is_enabled(self._rule("DDG101"))
        assert not config.is_enabled(self._rule("MACH201"))

    def test_select_matches_exact_code(self):
        config = LintConfig(select=frozenset({"DDG103"}))
        assert config.is_enabled(self._rule("DDG103"))
        assert not config.is_enabled(self._rule("DDG101"))

    def test_select_implies_enablement_but_disable_wins(self):
        config = LintConfig(select=frozenset({"MACH204"}))
        assert config.is_enabled(self._rule("MACH204"))
        config = LintConfig(
            select=frozenset({"DDG1"}), disable=frozenset({"DDG101"})
        )
        assert not config.is_enabled(self._rule("DDG101"))
        assert config.is_enabled(self._rule("DDG102"))

    def test_severity_override(self):
        config = LintConfig(severity={"DDG105": "error"})
        assert config.severity_for(self._rule("DDG105")) == "error"
        assert config.severity_for(self._rule("DDG101")) == "error"

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            LintConfig(severity={"DDG101": "fatal"})

    @pytest.mark.parametrize("field", ["disable", "severity"])
    def test_unknown_code_rejected(self, field):
        # A deleted code (DF701) or a typo must not pass silently.
        for code in ("DF701", "DDG10"):
            value = (
                {code: "warning"} if field == "severity"
                else frozenset({code})
            )
            with pytest.raises(ValueError, match=code):
                LintConfig(**{field: value})

    def test_select_must_prefix_a_rule(self):
        for entry in ("DF74", "DF7", "LINT001", "DDG1x", "SCHED4"):
            with pytest.raises(ValueError, match=entry):
                LintConfig(select=frozenset({entry}))
        assert LintConfig(select=frozenset({"MACH", "DDG109"}))

    def test_config_is_hashable_and_picklable(self):
        import pickle

        config = LintConfig(
            disable=frozenset({"DDG105"}), strict=True
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
