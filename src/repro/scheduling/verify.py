"""Independent modulo-schedule validity checking.

``check_schedule`` judges a schedule with the independent certificate
checker (:mod:`repro.certify.check`): the schedule's annotated graph,
cluster map and start cycles are emitted as certificate witnesses and
run through the checker's assignment (CERT603), timing (CERT604) and
occupancy (CERT605) sections.  Each issue becomes one
:class:`Violation` of the matching historical kind, carrying the CERT
code, so ``compile_loop(verify=True)``, the ``--certify`` gate and the
tests that validate schedules share one checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .schedule import Schedule

#: Historical violation kind of each schedule-judging certify section.
_KIND_OF_CODE = {
    "CERT603": "structure",
    "CERT604": "dependence",
    "CERT605": "resource",
}


@dataclass
class Violation:
    """One broken constraint, with a human-readable description."""

    kind: str
    detail: str
    #: Stable diagnostic code (``CERT603``–``CERT605``); empty for
    #: hand-built violations.
    code: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.code:
            return f"[{self.kind}:{self.code}] {self.detail}"
        return f"[{self.kind}] {self.detail}"


def check_schedule(schedule: Schedule) -> List[Violation]:
    """Return every constraint violation of ``schedule`` (empty = valid)."""
    # Imported here: the certificate emitter imports this package.
    from ..certify.check import check_schedule_sections, emission_failure
    from ..certify.emit import schedule_certificate

    annotated = schedule.annotated
    try:
        certificate = schedule_certificate(schedule)
    except Exception as exc:  # noqa: BLE001 - a malformed schedule
        issues = [emission_failure(exc)]
    else:
        issues = check_schedule_sections(
            certificate, annotated.ddg, annotated.machine
        )
    return [
        Violation(
            kind=_KIND_OF_CODE[issue.code],
            detail=f"{issue.location}: {issue.message}",
            code=issue.code,
        )
        for issue in issues
    ]


def assert_valid(schedule: Schedule) -> None:
    """Raise :class:`AssertionError` listing violations, if any."""
    violations = check_schedule(schedule)
    if violations:
        summary = "\n".join(str(v) for v in violations)
        raise AssertionError(
            f"invalid schedule (II={schedule.ii}):\n{summary}"
        )
