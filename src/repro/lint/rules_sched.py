"""``SCHED4xx`` — schedule-shape warnings.

The schedule's constraints themselves (dependences, per-row resource
capacities, the annotated graph's structure) are judged by the
independent certificate checker, :mod:`repro.certify.check`, which
``--certify`` and :func:`repro.scheduling.check_schedule` run.  What
stays here is what that checker does not decide: a warning for runaway
start cycles.
"""

from __future__ import annotations

from .registry import Finding, rule


@rule(
    "SCHED406", "excessive-schedule-span", "warning",
    "the schedule's makespan exceeds the serial-chain bound (sum of "
    "all latencies), signalling runaway start cycles",
    requires=["schedule"], artifact="schedule",
)
def check_schedule_span(target, config):
    schedule = target.schedule
    if schedule.ii < 1 or not schedule.start:
        return
    ddg = schedule.annotated.ddg
    # Executing every operation back to back is the worst sensible
    # schedule of one iteration; anything beyond it means some start
    # cycle drifted off (each op still occupies >= 1 issue cycle).
    serial_bound = sum(
        max(1, node.latency) for node in ddg.nodes
    )
    if schedule.makespan > serial_bound:
        yield Finding(
            location="makespan",
            message=(
                f"makespan {schedule.makespan} exceeds the "
                f"serial-chain bound {serial_bound}"
            ),
            hint="check for pathologically late start cycles",
        )
