"""The ``--certify`` gate: emit, verify, and optionally probe tightness.

:func:`certify_compiled` is the one-call form the driver, the
experiment runners, and the CLI all share: emit the certificate for a
:class:`~repro.core.driver.CompiledLoop`, hand it to the independent
checker, and (when the config asks) run the exact tightness oracle.
The result is a :class:`CertifiedArtifact` — certificate, verifier
issues, and the optional exact verdict — which
:func:`artifact_diagnostics` bridges into the lint diagnostic stream so
certificate failures render through the same text/JSON/SARIF renderers
as every other finding.  A loop too malformed to emit a certificate
for is reported as one CERT603 issue, never raised.

:class:`CertifyConfig` is frozen and picklable, so it crosses the
parallel engine's process boundary exactly like
:class:`~repro.lint.registry.LintConfig` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .. import obs
from ..lint.diagnostics import SEVERITY_ERROR, SEVERITY_WARNING, Diagnostic
from .check import CertIssue, check_certificate, emission_failure
from .emit import emit_certificate
from .exact import (
    STATUS_BUDGET,
    STATUS_LOOSE,
    ExactBudget,
    ExactResult,
    probe_tightness,
)
from .witness import Certificate

#: Diagnostic code of a loose-II finding (exact oracle beat the
#: heuristic scheduler).  Warning severity: a loose II is a missed
#: optimization, not a wrong compile.
CODE_LOOSE_II = "CERT690"

#: Diagnostic code of a loop ``repro certify`` could not compile.
CODE_COMPILE_FAILURE = "LINT002"


class CertRule(NamedTuple):
    """How one certify code reports: rule slug, artifact family (the
    lint families' names, so mixed reports group naturally), default
    severity and what the code proves."""

    name: str
    artifact: str
    severity: str
    description: str


#: Every diagnostic code the certify gate emits, in code order.
CERT_RULES = {
    "CERT600": CertRule(
        "cert-graph-fidelity", "annotated", SEVERITY_ERROR,
        "annotated graph witness is a faithful extension of the input "
        "DDG, and every copy is fed once and read",
    ),
    "CERT601": CertRule(
        "cert-recurrence-witness", "ddg", SEVERITY_ERROR,
        "RecMII witness cycle exists, is maximal, and attains its bound",
    ),
    "CERT602": CertRule(
        "cert-resource-witness", "machine", SEVERITY_ERROR,
        "ResMII counting evidence matches an independent recount",
    ),
    "CERT603": CertRule(
        "cert-copy-routing", "annotated", SEVERITY_ERROR,
        "every node sits on a real cluster and every cross-cluster "
        "value flow rides a legal witnessed copy route",
    ),
    "CERT604": CertRule(
        "cert-timing", "schedule", SEVERITY_ERROR,
        "per-edge timing slack witnesses are correct and non-negative",
    ),
    "CERT605": CertRule(
        "cert-occupancy", "schedule", SEVERITY_ERROR,
        "per-(resource, row) occupancy slots match capacity and recount",
    ),
    "CERT606": CertRule(
        "cert-lifetimes", "regalloc", SEVERITY_ERROR,
        "lifetime intervals and MVE register assignment are "
        "overlap-free",
    ),
    CODE_LOOSE_II: CertRule(
        "cert-loose-ii", "schedule", SEVERITY_WARNING,
        "exact bounded oracle found a valid schedule below the "
        "achieved II",
    ),
}


@dataclass(frozen=True)
class CertifyConfig:
    """Knobs of the certify gate (frozen, picklable).

    ``strict`` makes a certificate failure abort the compile (mirroring
    the strict lint gate); ``exact`` additionally runs the bounded
    tightness oracle, budgeted by the two ``exact_*`` limits.
    """

    strict: bool = False
    exact: bool = False
    exact_node_budget: int = 12
    exact_backtrack_budget: int = 20000

    def budget(self) -> ExactBudget:
        """The oracle budget this config describes."""
        return ExactBudget(
            node_budget=self.exact_node_budget,
            backtrack_budget=self.exact_backtrack_budget,
        )


DEFAULT_CERTIFY = CertifyConfig()


@dataclass(frozen=True)
class CertifiedArtifact:
    """One compile's certificate plus its verification outcome.

    ``certificate`` is None when the compiled loop was too malformed to
    emit one; ``issues`` then holds the single CERT603 emission failure
    and ``loop`` names the loop.
    """

    certificate: Optional[Certificate]
    issues: Tuple[CertIssue, ...]
    exact: Optional[ExactResult] = None
    loop: str = ""

    @property
    def ok(self) -> bool:
        """True when the independent checker found no issue."""
        return not self.issues

    @property
    def exact_status(self) -> str:
        """The oracle's verdict, or '' when the oracle did not run."""
        return self.exact.status if self.exact is not None else ""

    def codes(self) -> Tuple[str, ...]:
        """Distinct diagnostic codes this artifact carries, sorted."""
        codes = {issue.code for issue in self.issues}
        if self.exact is not None and self.exact.status == STATUS_LOOSE:
            codes.add(CODE_LOOSE_II)
        return tuple(sorted(codes))


def certify_compiled(
    compiled, config: CertifyConfig = DEFAULT_CERTIFY
) -> CertifiedArtifact:
    """Emit and verify the certificate of one compiled loop.

    Never raises on a malformed artifact: an emitter failure becomes
    one error-severity CERT603 issue naming the exception.
    """
    loop = compiled.ddg.name or "loop"
    with obs.span("certify", loop=compiled.ddg.name):
        try:
            certificate = emit_certificate(compiled)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            certificate = None
            issues = (emission_failure(exc),)
        else:
            issues = tuple(
                check_certificate(
                    certificate, compiled.ddg, compiled.machine
                )
            )
        obs.count("certify.checked")
        if issues:
            obs.count("certify.failures", len(issues))
        exact = None
        if config.exact and certificate is not None:
            exact = probe_tightness(
                certificate, compiled.ddg, compiled.machine,
                config.budget(),
            )
            if exact.proved:
                obs.count("certify.exact_proved")
            elif exact.status == STATUS_BUDGET:
                obs.count("certify.exact_budget_exhausted")
            if exact.status == STATUS_LOOSE:
                obs.count("certify.loose_ii")
    return CertifiedArtifact(certificate, issues, exact, loop)


def artifact_diagnostics(artifact: CertifiedArtifact) -> List[Diagnostic]:
    """Bridge one certified artifact into lint-style diagnostics.

    Checker issues become error-severity CERT600–606 diagnostics; a
    ``loose`` exact verdict becomes a warning-severity CERT690 citing
    the II the oracle scheduled at.
    """
    loop = artifact.loop or artifact.certificate.loop
    diagnostics = [
        Diagnostic(
            code=issue.code,
            severity=SEVERITY_ERROR,
            message=issue.message,
            rule=CERT_RULES[issue.code].name,
            loop=loop,
            artifact=CERT_RULES[issue.code].artifact,
            location=issue.location,
        )
        for issue in artifact.issues
    ]
    exact = artifact.exact
    if exact is not None and exact.status == STATUS_LOOSE:
        diagnostics.append(
            Diagnostic(
                code=CODE_LOOSE_II,
                severity=SEVERITY_WARNING,
                message=(
                    f"achieved II={artifact.certificate.ii} is loose: "
                    f"the exact oracle found a valid schedule at "
                    f"II={exact.probed_ii}"
                ),
                rule=CERT_RULES[CODE_LOOSE_II].name,
                loop=loop,
                artifact=CERT_RULES[CODE_LOOSE_II].artifact,
                hint=(
                    "the heuristic scheduler missed a feasible schedule "
                    "under this cluster assignment"
                ),
            )
        )
    return diagnostics


def certify_loop_report(ddg, machine, variant, certify_config, severity):
    """Compile + certify one loop into a lint-style report.

    The ``repro certify`` per-loop unit, shared by the serial path and
    the worker pool's ``certify_loop`` task.  A loop that fails to
    compile surfaces as one ``LINT002`` diagnostic; checker issues and
    the exact oracle's verdict flow through :func:`artifact_diagnostics`.
    Any ``--severity CODE=LEVEL`` override applies to all of them, so
    exit codes track effective severities only.
    """
    import dataclasses

    from ..core.driver import CompilationError, compile_loop
    from ..lint.engine import LintReport

    report = LintReport(n_targets=1)
    try:
        compiled = compile_loop(ddg, machine, config=variant)
    except (CompilationError, ValueError) as exc:
        diagnostics = [
            Diagnostic(
                code=CODE_COMPILE_FAILURE,
                severity=SEVERITY_ERROR,
                rule="compile-failure",
                loop=ddg.name or "loop",
                artifact="pipeline",
                message=f"loop failed to compile: {exc}",
                hint="fix the loop (or machine) before the pipeline "
                     "rules can run",
            )
        ]
    else:
        artifact = certify_compiled(compiled, certify_config)
        report.rules_run = 7 + (1 if certify_config.exact else 0)
        diagnostics = artifact_diagnostics(artifact)
    for diagnostic in diagnostics:
        override = severity.get(diagnostic.code)
        if override is not None and override != diagnostic.severity:
            diagnostic = dataclasses.replace(
                diagnostic, severity=override
            )
        report.diagnostics.append(diagnostic)
    return report
