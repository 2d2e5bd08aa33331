"""Renderers: text, the stable JSON document, and SARIF 2.1.0."""

import json

import pytest

from repro.lint import (
    LintReport,
    all_rules,
    format_json,
    format_sarif,
    format_text,
    lint_compiled,
    render,
    to_json_doc,
    to_sarif,
)
from repro.certify.gate import CERT_RULES
from repro.lint.diagnostics import Diagnostic

#: Draft-07 subset of the SARIF 2.1.0 schema covering everything the
#: renderer emits.  The full OASIS schema is not vendored; this pins
#: the exact structural contract GitHub-style SARIF ingesters rely on.
SARIF_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name", "rules"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": [
                                                "id",
                                                "shortDescription",
                                                "defaultConfiguration",
                                            ],
                                            "properties": {
                                                "id": {
                                                    "type": "string",
                                                    "pattern": (
                                                        "^(DDG1|MACH2|"
                                                        "CERT6)"
                                                        "[0-9]{2}$"
                                                    ),
                                                },
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "required": ["level"],
                                                    "properties": {
                                                        "level": {
                                                            "enum": [
                                                                "note",
                                                                "warning",
                                                                "error",
                                                            ]
                                                        }
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": [
                                "ruleId",
                                "level",
                                "message",
                                "locations",
                            ],
                            "properties": {
                                "level": {
                                    "enum": ["none", "note",
                                             "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["logicalLocations"],
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


@pytest.fixture
def dirty_report():
    """A report with one diagnostic per severity level."""
    return LintReport(
        diagnostics=[
            Diagnostic(
                code="DDG103", severity="error", message="cycle",
                rule="zero-distance-cycle", loop="bad", artifact="ddg",
                location="nodes [0, 1]",
                hint="add a distance somewhere",
            ),
            Diagnostic(
                code="DDG102", severity="warning", message="dup",
                rule="duplicate-edge", loop="bad", artifact="ddg",
                location="edge 0->1@0",
            ),
            Diagnostic(
                code="DDG106", severity="info", message="latency",
                rule="latency-table-mismatch", loop="bad", artifact="ddg",
                location="node 2",
            ),
        ],
        n_targets=1,
        rules_run=10,
    )


class TestText:
    def test_lists_diagnostics_and_summary(self, dirty_report):
        text = format_text(dirty_report)
        assert "[DDG103 error]" in text
        assert "hint: add a distance somewhere" in text
        assert dirty_report.summary() in text

    def test_clean_report_is_just_the_summary(self):
        report = LintReport(n_targets=2, rules_run=8)
        assert format_text(report) == report.summary()


class TestJson:
    def test_document_shape(self, dirty_report):
        doc = json.loads(format_json(dirty_report))
        assert doc["tool"] == "repro-lint"
        assert doc["summary"] == {
            "targets": 1, "rules_run": 10, "errors": 1,
            "warnings": 1, "infos": 1, "ok": False,
        }
        assert len(doc["diagnostics"]) == 3
        first = doc["diagnostics"][0]
        assert first["code"] == "DDG103"
        assert first["severity"] == "error"
        assert first["hint"] == "add a distance somewhere"

    def test_hint_omitted_when_absent(self, dirty_report):
        doc = to_json_doc(dirty_report)
        assert "hint" not in doc["diagnostics"][1]

    def test_compiled_loop_report_serializes(self, compiled_chain):
        doc = json.loads(format_json(lint_compiled(compiled_chain)))
        assert doc["summary"]["ok"] is True


class TestSarif:
    def test_structure(self, dirty_report):
        sarif = to_sarif(dirty_report)
        assert sarif["version"] == "2.1.0"
        driver = sarif["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        # Every lint rule, then every code the certify checker reports.
        assert len(driver["rules"]) == len(all_rules()) + len(CERT_RULES)
        results = sarif["runs"][0]["results"]
        assert [r["level"] for r in results] == [
            "error", "warning", "note",
        ]
        for result in results:
            index = result["ruleIndex"]
            assert driver["rules"][index]["id"] == result["ruleId"]

    def test_hint_folded_into_message(self, dirty_report):
        result = to_sarif(dirty_report)["runs"][0]["results"][0]
        assert "hint: add a distance somewhere" in \
            result["message"]["text"]
        logical = result["locations"][0]["logicalLocations"][0]
        assert logical["fullyQualifiedName"] == "bad::nodes [0, 1]"

    def test_validates_against_schema(self, dirty_report, compiled_chain):
        jsonschema = pytest.importorskip("jsonschema")
        for report in (dirty_report, lint_compiled(compiled_chain)):
            doc = json.loads(format_sarif(report))
            jsonschema.validate(doc, SARIF_SCHEMA)


class TestRenderDispatch:
    def test_known_formats(self, dirty_report):
        assert render(dirty_report, "text") == format_text(dirty_report)
        assert render(dirty_report, "json") == format_json(dirty_report)
        assert render(dirty_report, "sarif") == \
            format_sarif(dirty_report)

    def test_unknown_format_rejected(self, dirty_report):
        with pytest.raises(ValueError):
            render(dirty_report, "xml")
