"""Diagnostic records emitted by the static-analysis rules.

Every finding is a :class:`Diagnostic` with a *stable* rule code
(``DDG103``, ``MACH203``, ...) so tooling, CI gates, and test
assertions can match on codes instead of free-form prose.  Severities
follow the usual three-level model; only ``error`` makes a lint run
fail (nonzero exit, strict-gate abort).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Severity levels, weakest to strongest.
SEVERITY_INFO = "info"
SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"

SEVERITIES = (SEVERITY_INFO, SEVERITY_WARNING, SEVERITY_ERROR)

#: SARIF 2.1.0 ``level`` values per severity.
SARIF_LEVELS = {
    SEVERITY_INFO: "note",
    SEVERITY_WARNING: "warning",
    SEVERITY_ERROR: "error",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule on one artifact.

    ``code`` is the stable rule code; ``rule`` its human-readable slug.
    ``loop`` names the artifact owner (loop name, or the machine name
    for machine-description findings), ``artifact`` the artifact family
    the rule inspected (``ddg``/``machine``/``annotated``/``schedule``/
    ``regalloc``), and ``location`` the finest-grained position inside
    it (``node 3``, ``edge 2->5``, ``cluster 1``, ...).
    """

    code: str
    severity: str
    message: str
    rule: str = ""
    loop: str = ""
    artifact: str = ""
    location: str = ""
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        """True for error-severity findings (the only gating level)."""
        return self.severity == SEVERITY_ERROR

    def as_dict(self) -> Dict[str, str]:
        """Plain-dict form used by the JSON renderer (stable keys)."""
        doc = {
            "code": self.code,
            "severity": self.severity,
            "rule": self.rule,
            "loop": self.loop,
            "artifact": self.artifact,
            "location": self.location,
            "message": self.message,
        }
        if self.hint:
            doc["hint"] = self.hint
        return doc

    def __str__(self) -> str:
        where = self.loop or self.artifact
        if self.location:
            where = f"{where}:{self.location}" if where else self.location
        prefix = f"{self.code} {self.severity}"
        text = f"[{prefix}] {where}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


#: Meta-diagnostic code emitted by the engine itself (not by a rule).
CODE_RULE_CRASH = "LINT001"


def rule_crash(
    rule_code: str, loop: str, error: BaseException,
    severity: str = SEVERITY_ERROR,
) -> Diagnostic:
    """The engine's containment diagnostic for a crashing rule.

    ``severity`` lets a config override (``--severity LINT001=warning``)
    demote engine meta-diagnostics the same way it demotes rule
    findings, so exit codes track *effective* severities only.
    """
    return Diagnostic(
        code=CODE_RULE_CRASH,
        severity=severity,
        rule="rule-crash",
        loop=loop,
        artifact="lint",
        location=rule_code,
        message=f"rule {rule_code} crashed: {error!r}",
        hint="this is a lint bug, not an artifact defect",
    )

