"""The lint engine: targets, rule execution, reports.

A :class:`LintTarget` names one unit of work and carries the input it
holds — a loop's dependence graph, a machine description, or both.
:func:`run_lint` executes every enabled rule whose artifact the target
carries and collects the diagnostics into a :class:`LintReport`.  Lint
compiles nothing: ``repro lint`` runs :func:`lint_machine` once and
:func:`run_lint` over each loop's graph, and the ``--lint`` gate runs
:func:`lint_compiled` on the inputs of a loop that was just compiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

from .. import obs
from ..ddg.graph import Ddg
from ..machine.machine import Machine
from .diagnostics import (
    CODE_RULE_CRASH,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
    rule_crash,
)
from .registry import DEFAULT_CONFIG, LintConfig, applicable_rules


@dataclass
class LintTarget:
    """The inputs the rules read for one lint unit."""

    name: str = ""
    ddg: Optional[Ddg] = None
    machine: Optional[Machine] = None

    @property
    def available(self) -> Set[str]:
        """Artifact names present on this target (see ``Rule.artifact``)."""
        names: Set[str] = set()
        if self.ddg is not None:
            names.add("ddg")
        if self.machine is not None:
            names.add("machine")
        return names


@dataclass
class LintReport:
    """All diagnostics of one lint run, plus derived summaries."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    n_targets: int = 0
    rules_run: int = 0

    def by_severity(self, severity: str) -> List[Diagnostic]:
        """Diagnostics of one severity level."""
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> List[Diagnostic]:
        """Error-severity diagnostics (the gating level)."""
        return self.by_severity(SEVERITY_ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        """Warning-severity diagnostics."""
        return self.by_severity(SEVERITY_WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        """Info-severity diagnostics."""
        return self.by_severity(SEVERITY_INFO)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was emitted."""
        return not self.errors

    @property
    def exit_code(self) -> int:
        """Process exit code a lint CLI run should return."""
        return 0 if self.ok else 1

    def codes(self) -> List[str]:
        """Distinct diagnostic codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def extend(self, other: "LintReport") -> None:
        """Merge another report into this one."""
        self.diagnostics.extend(other.diagnostics)
        self.n_targets += other.n_targets
        self.rules_run += other.rules_run

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"{self.n_targets} target(s), {self.rules_run} rule "
            f"check(s): {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )


def lint_target(
    target: LintTarget, config: LintConfig = DEFAULT_CONFIG
) -> LintReport:
    """Run every applicable enabled rule over one target."""
    rules = applicable_rules(config, frozenset(target.available))
    report = LintReport(n_targets=1)
    diagnostics = report.diagnostics
    with obs.span("lint", target=target.name):
        # The rule loop is the ``--lint`` gate's per-loop hot path:
        # a finding-free rule (the common case) costs one generator
        # drain and nothing else.
        for rule in rules:
            try:
                findings = list(rule.check(target, config))
            except Exception as exc:  # containment: a rule bug must
                diagnostics.append(  # not kill the run
                    rule_crash(
                        rule.code, target.name, exc,
                        severity=config.severity.get(
                            CODE_RULE_CRASH, SEVERITY_ERROR
                        ),
                    )
                )
                continue
            if not findings:
                continue
            severity = config.severity_for(rule)
            for finding in findings:
                diagnostics.append(
                    Diagnostic(
                        code=rule.code,
                        severity=severity,
                        message=finding.message,
                        rule=rule.name,
                        loop=target.name,
                        artifact=rule.artifact,
                        location=finding.location,
                        hint=finding.hint or "",
                    )
                )
        report.rules_run = len(rules)
        obs.count("lint.rules_run", report.rules_run)
        obs.count("lint.diagnostics", len(diagnostics))
        obs.count("lint.errors", len(report.errors))
    return report


def run_lint(
    targets: Iterable[LintTarget],
    config: LintConfig = DEFAULT_CONFIG,
) -> LintReport:
    """Lint several targets into one merged report."""
    report = LintReport()
    for target in targets:
        report.extend(lint_target(target, config))
    return report


def lint_compiled(
    compiled, config: LintConfig = DEFAULT_CONFIG
) -> LintReport:
    """Lint the inputs of one :class:`~repro.core.driver.CompiledLoop`:
    its dependence graph and its machine (the ``--lint`` gate)."""
    target = LintTarget(
        name=compiled.ddg.name or "loop",
        ddg=compiled.ddg,
        machine=compiled.machine,
    )
    return lint_target(target, config)


def lint_machine(
    machine: Machine, config: LintConfig = DEFAULT_CONFIG
) -> LintReport:
    """Lint a machine description alone (MACH2xx rules)."""
    target = LintTarget(name=machine.name or "machine", machine=machine)
    return lint_target(target, config)
