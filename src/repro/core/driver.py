"""The full two-phase compilation process (paper Figure 5).

For each candidate II starting at the unified machine's MII:

1. run the cluster assignment phase; on failure, restart at II + 1
   (a fresh assignment at the larger II generally needs fewer copies than
   patching the old one — the paper's stated reason for re-assigning);
2. run the traditional modulo scheduler on the annotated graph; on
   failure, again restart the whole process at II + 1.

The first II at which both phases succeed is the loop's final II.
Each candidate runs in an ``attempt`` span holding its search counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..ddg.graph import Ddg
from ..ddg.mii import mii
from ..ddg.transform import AnnotatedDdg
from ..ddg.validate import validate_loop
from ..machine.machine import Machine
from ..machine.validate import validate_machine
from ..scheduling.modulo import modulo_schedule
from ..scheduling.schedule import Schedule
from ..scheduling.verify import assert_valid
from .assignment import assign_clusters
from .variants import HEURISTIC_ITERATIVE, AssignmentConfig


class CompilationError(RuntimeError):
    """No valid schedule was found within the II safety bound."""


@dataclass
class CompiledLoop:
    """The outcome of compiling one loop for one machine."""

    ddg: Ddg
    machine: Machine
    config: AssignmentConfig
    ii: int
    mii: int
    annotated: AnnotatedDdg
    schedule: Schedule
    attempts: int
    #: Populated when compilation ran with a lint gate
    #: (``lint_config`` passed to :func:`compile_loop`).
    lint_report: Optional[object] = None
    #: Populated when compilation ran with a certify gate
    #: (``certify_config`` passed to :func:`compile_loop`); a
    #: :class:`repro.certify.CertifiedArtifact`.
    certified: Optional[object] = None

    @property
    def certificate(self) -> Optional[object]:
        """The compile's :class:`repro.certify.Certificate`, if any."""
        return (
            self.certified.certificate
            if self.certified is not None else None
        )

    @property
    def copy_count(self) -> int:
        """Copies the assignment inserted."""
        return self.annotated.copy_count

    @property
    def ii_over_mii(self) -> int:
        """Final II excess over the unified-machine lower bound."""
        return self.ii - self.mii


def ii_search_bound(ddg: Ddg) -> int:
    """A safely large maximum II: with this much slack per iteration the
    counting constraints cannot bind and all copies serialize freely."""
    return ddg.total_latency() + 2 * len(ddg) + 16


def compile_loop(
    ddg: Ddg,
    machine: Machine,
    config: AssignmentConfig = HEURISTIC_ITERATIVE,
    verify: bool = False,
    min_ii: Optional[int] = None,
    lint_config=None,
    certify_config=None,
) -> CompiledLoop:
    """Assign and modulo-schedule ``ddg`` on ``machine`` (Figure 5 loop).

    Before attempt 1, ``validate_machine`` and ``validate_loop`` reject
    an input no II can satisfy with a ``ValidationError`` (a
    ``ValueError``) naming the defect's lint code.

    ``min_ii`` overrides the starting candidate (defaults to the unified
    machine's MII, the paper's starting point).  ``verify=True`` re-checks
    every produced schedule with the independent validator.

    ``lint_config`` (a :class:`repro.lint.LintConfig`) runs the static
    analyzer over the compiled artifacts and attaches the report as
    ``CompiledLoop.lint_report``; with ``lint_config.strict`` a report
    containing errors raises :class:`CompilationError`.

    ``certify_config`` (a :class:`repro.certify.CertifyConfig`) emits
    the compilation certificate, verifies it with the independent
    checker, and attaches the result as ``CompiledLoop.certified``;
    with ``certify_config.strict`` a certificate failure raises
    :class:`CompilationError`.
    """
    validate_machine(machine)
    validate_loop(ddg, machine)
    # The unified machine's MII: ResMII reads only the machine-wide
    # issue capacities, which sum over clusters as the unified mix does.
    machine_mii = mii(ddg, machine)
    lower = machine_mii if min_ii is None else max(1, min_ii)
    upper = lower + ii_search_bound(ddg)
    attempts = 0
    with obs.span(
        "compile", loop=ddg.name or "loop", machine=machine.name
    ) as compile_span:
        for candidate_ii in range(lower, upper + 1):
            attempts += 1
            obs.count("driver.attempts")
            with obs.span("attempt", ii=candidate_ii) as attempt_span:
                annotated = assign_clusters(ddg, machine, candidate_ii, config)
                if annotated is None:
                    obs.count("driver.assign_failures")
                    attempt_span.note(outcome="assign_failed")
                    continue
                schedule = modulo_schedule(annotated, candidate_ii)
                if schedule is None:
                    obs.count("driver.schedule_failures")
                    attempt_span.note(outcome="schedule_failed")
                    continue
                if verify:
                    assert_valid(schedule)
                attempt_span.note(outcome="ok")
            compile_span.note(ii=candidate_ii)
            compiled = CompiledLoop(
                ddg=ddg,
                machine=machine,
                config=config,
                ii=candidate_ii,
                mii=machine_mii,
                annotated=annotated,
                schedule=schedule,
                attempts=attempts,
            )
            if lint_config is not None:
                from ..lint.engine import lint_compiled

                report = lint_compiled(compiled, lint_config)
                compiled.lint_report = report
                if lint_config.strict and not report.ok:
                    obs.count("driver.lint_rejections")
                    raise CompilationError(
                        f"lint gate rejected "
                        f"{ddg.name or 'loop'} on {machine.name}: "
                        + "; ".join(
                            str(d) for d in report.errors[:4]
                        )
                    )
            if certify_config is not None:
                from ..certify.gate import certify_compiled

                certified = certify_compiled(compiled, certify_config)
                compiled.certified = certified
                if certify_config.strict and not certified.ok:
                    obs.count("driver.certify_rejections")
                    raise CompilationError(
                        f"certify gate rejected "
                        f"{ddg.name or 'loop'} on {machine.name}: "
                        + "; ".join(
                            str(issue)
                            for issue in certified.issues[:4]
                        )
                    )
            return compiled
        compile_span.note(outcome="no_schedule")
        obs.count("driver.compilation_errors")
    raise CompilationError(
        f"no schedule for {ddg.name or 'loop'} on {machine.name} "
        f"within II <= {upper}"
    )
