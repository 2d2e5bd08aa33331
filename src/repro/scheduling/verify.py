"""Independent modulo-schedule validity checking.

``check_schedule`` judges a schedule with the independent certificate
checker (:mod:`repro.certify.check`): the schedule's annotated graph,
cluster map and start cycles are emitted as certificate witnesses and
run through the checker's assignment (CERT603), timing (CERT604) and
occupancy (CERT605) sections, whose issues are returned unchanged.
Certify is the only judge of a kernel graph and its schedule:
``compile_loop(verify=True)``, the ``--certify`` gate and the tests
that validate schedules share this one checker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .schedule import Schedule

if TYPE_CHECKING:
    from ..certify.check import CertIssue


def check_schedule(schedule: Schedule) -> List[CertIssue]:
    """Return certify's issues with ``schedule`` (empty = valid)."""
    # Imported here: the certificate emitter imports this package.
    from ..certify.check import check_schedule_sections, emission_failure
    from ..certify.emit import schedule_certificate

    annotated = schedule.annotated
    try:
        certificate = schedule_certificate(schedule)
    except Exception as exc:  # noqa: BLE001 - a malformed schedule
        return [emission_failure(exc)]
    return check_schedule_sections(
        certificate, annotated.ddg, annotated.machine
    )


def assert_valid(schedule: Schedule) -> None:
    """Raise :class:`AssertionError` listing certify's issues, if any."""
    issues = check_schedule(schedule)
    if issues:
        summary = "\n".join(str(issue) for issue in issues)
        raise AssertionError(
            f"invalid schedule (II={schedule.ii}):\n{summary}"
        )
