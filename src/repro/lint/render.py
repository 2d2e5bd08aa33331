"""Render a :class:`~repro.lint.engine.LintReport` for humans and tools.

Three formats: plain text (terminal), a stable JSON document, and
SARIF 2.1.0 — the interchange format code-scanning UIs (GitHub, VS
Code) ingest.  Diagnostics here have *logical* locations (a loop, a
node, a kernel row), not file/line positions, so the SARIF results use
``logicalLocations`` and put the human-readable position in the
message.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .diagnostics import SARIF_LEVELS
from .engine import LintReport
from .registry import all_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-lint"
TOOL_URI = "https://example.invalid/repro"


def format_text(report: LintReport) -> str:
    """Plain-text rendering: one line per diagnostic, then a blank line
    and the summary (the summary alone for a clean report)."""
    lines: List[str] = [str(d) for d in report.diagnostics]
    if lines:
        lines.append("")
    lines.append(report.summary())
    return "\n".join(lines)


def to_json_doc(report: LintReport) -> Dict:
    """The stable JSON document shape (``format_json`` serialises it)."""
    return {
        "tool": TOOL_NAME,
        "summary": {
            "targets": report.n_targets,
            "rules_run": report.rules_run,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "infos": len(report.infos),
            "ok": report.ok,
        },
        "diagnostics": [d.as_dict() for d in report.diagnostics],
    }


def format_json(report: LintReport) -> str:
    """Serialise the JSON document, stable key order."""
    return json.dumps(to_json_doc(report), indent=2, sort_keys=True)


def _sarif_rule(code, name, description, severity, family, artifact):
    return {
        "id": code,
        "name": name,
        "shortDescription": {"text": description},
        "defaultConfiguration": {"level": SARIF_LEVELS[severity]},
        "properties": {"family": family, "artifact": artifact},
    }


def _sarif_rules() -> List[Dict]:
    """``tool.driver.rules``: every registered lint rule, then every
    code the certify checker reports (both render through here)."""
    from ..certify.gate import CERT_RULES

    return [
        _sarif_rule(
            rule.code, rule.name, rule.description,
            rule.default_severity, rule.family, rule.artifact,
        )
        for rule in all_rules()
    ] + [
        _sarif_rule(
            code, cert.name, cert.description, cert.severity, "CERT6",
            cert.artifact,
        )
        for code, cert in CERT_RULES.items()
    ]


def to_sarif(report: LintReport) -> Dict:
    """A SARIF 2.1.0 log document for this report."""
    rules = _sarif_rules()
    index_of = {entry["id"]: i for i, entry in enumerate(rules)}
    results: List[Dict] = []
    for diag in report.diagnostics:
        message = diag.message
        if diag.hint:
            message = f"{message} (hint: {diag.hint})"
        result: Dict = {
            "ruleId": diag.code,
            "level": SARIF_LEVELS[diag.severity],
            "message": {"text": message},
            "locations": [
                {
                    "logicalLocations": [
                        {
                            "name": diag.location or diag.loop or "-",
                            "fullyQualifiedName": "::".join(
                                part
                                for part in (diag.loop, diag.location)
                                if part
                            ) or "-",
                            "kind": diag.artifact or "artifact",
                        }
                    ]
                }
            ],
        }
        if diag.code in index_of:
            result["ruleIndex"] = index_of[diag.code]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def format_sarif(report: LintReport) -> str:
    """Serialise the SARIF document."""
    return json.dumps(to_sarif(report), indent=2)


def render(report: LintReport, fmt: str) -> str:
    """Render ``report`` in ``fmt`` (``text``/``json``/``sarif``)."""
    if fmt == "text":
        return format_text(report)
    if fmt == "json":
        return format_json(report)
    if fmt == "sarif":
        return format_sarif(report)
    raise ValueError(f"unknown lint output format {fmt!r}")
