"""The lint engine: targets, rule execution, reports.

A :class:`LintTarget` bundles whatever pipeline artifacts exist for one
unit of work — a bare machine, a parsed loop, or a fully compiled
(annotated + scheduled) loop.  :func:`run_lint` executes every enabled
rule whose requirements the target satisfies and collects the
diagnostics into a :class:`LintReport`.

``lint_compiled`` and ``lint_loop_deep`` are the two convenience
builders used by the CLI and the ``--lint`` pipeline gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from .. import obs
from ..ddg.graph import Ddg
from ..ddg.transform import AnnotatedDdg
from ..machine.machine import Machine
from ..scheduling.schedule import Schedule
from .diagnostics import (
    CODE_COMPILE_FAILURE,
    CODE_RULE_CRASH,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
    compile_failure,
    rule_crash,
)
from .registry import DEFAULT_CONFIG, LintConfig, applicable_rules


@dataclass
class LintTarget:
    """The artifacts available to the rules for one lint unit."""

    name: str = ""
    ddg: Optional[Ddg] = None
    machine: Optional[Machine] = None
    annotated: Optional[AnnotatedDdg] = None
    schedule: Optional[Schedule] = None

    @property
    def graph(self) -> Optional[Ddg]:
        """The dependence graph the DDG rules inspect."""
        if self.ddg is not None:
            return self.ddg
        if self.annotated is not None:
            return self.annotated.ddg
        return None

    @property
    def effective_machine(self) -> Optional[Machine]:
        """The machine description, wherever it is attached."""
        if self.machine is not None:
            return self.machine
        if self.annotated is not None:
            return self.annotated.machine
        if self.schedule is not None:
            return self.schedule.annotated.machine
        return None

    @property
    def available(self) -> Set[str]:
        """Artifact names present on this target (rule requirements)."""
        names: Set[str] = set()
        if self.graph is not None:
            names.add("graph")
        if self.effective_machine is not None:
            names.add("machine")
        if self.annotated is not None:
            names.add("annotated")
        if self.schedule is not None:
            names.add("schedule")
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
    return _run_rules(
        target, config, applicable_rules(config, frozenset(target.available))
    )


def _run_rules(
    target: LintTarget, config: LintConfig, rules: Sequence
) -> LintReport:
    """Run ``rules`` over one target into a one-target report."""
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
    """Lint one :class:`~repro.core.driver.CompiledLoop` end to end."""
    target = LintTarget(
        name=compiled.ddg.name or "loop",
        ddg=compiled.ddg,
        machine=compiled.machine,
        annotated=compiled.annotated,
        schedule=compiled.schedule,
    )
    return lint_target(target, config)


def lint_machine(
    machine: Machine, config: LintConfig = DEFAULT_CONFIG
) -> LintReport:
    """Lint a machine description alone (MACH2xx rules)."""
    target = LintTarget(name=machine.name or "machine", machine=machine)
    return lint_target(target, config)


def lint_loop_deep(
    ddg: Ddg,
    machine: Machine,
    config: LintConfig = DEFAULT_CONFIG,
    variant=None,
) -> LintReport:
    """Lint one loop through the whole pipeline.

    Runs the DDG rules first; when they find errors the loop is not
    compiled (the graph is not trustworthy enough).  Otherwise the loop
    is compiled for ``machine`` and the rules that read a schedule
    (SCHED406) run on it; the compiled loop's correctness is ``repro
    certify``'s job.  The machine rules are not run here: they read
    nothing of the loop, so :func:`lint_corpus_deep` (and ``repro lint
    --workers``) run them once per run through :func:`lint_machine`;
    on a machine the compile boundary rejects (``Machine.defects``) no
    loop is compiled, so its defects are not repeated per loop.
    A compile failure surfaces as a ``LINT002`` diagnostic rather than
    an exception so corpus-wide runs keep going.
    """
    name = ddg.name or "loop"
    report = lint_target(LintTarget(name=name, ddg=ddg), config)
    if not report.ok or machine.defects:
        return report
    from ..core.driver import CompilationError, compile_loop
    from ..core.variants import HEURISTIC_ITERATIVE

    try:
        compiled = compile_loop(
            ddg, machine,
            config=variant if variant is not None else HEURISTIC_ITERATIVE,
        )
    except (CompilationError, ValueError) as exc:
        obs.count("lint.compile_failures")
        report.diagnostics.append(
            compile_failure(
                name, exc,
                severity=config.severity.get(
                    CODE_COMPILE_FAILURE, SEVERITY_ERROR
                ),
            )
        )
        return report
    target = LintTarget(name=name, schedule=compiled.schedule)
    schedule_rules = [
        rule
        for rule in applicable_rules(config, frozenset(target.available))
        if "schedule" in rule.requires
    ]
    scheduled = _run_rules(target, config, schedule_rules)
    report.diagnostics.extend(scheduled.diagnostics)
    report.rules_run += scheduled.rules_run
    return report


def lint_corpus_deep(
    loops: Sequence[Ddg],
    machine: Machine,
    config: LintConfig = DEFAULT_CONFIG,
    variant=None,
) -> LintReport:
    """Deep-lint a corpus: the machine once, then every loop."""
    report = lint_machine(machine, config)
    for ddg in loops:
        report.extend(lint_loop_deep(ddg, machine, config, variant))
    return report
