"""``SCHED4xx`` — schedule-shape warnings and the reference differential.

The schedule's constraints themselves (dependences, per-row resource
capacities, the annotated graph's structure) are judged by the
independent certificate checker, :mod:`repro.certify.check`, which
``--certify`` and :func:`repro.scheduling.check_schedule` run.  What
stays here is what that checker does not decide: a warning for runaway
start cycles and, on demand, a differential cross-check against the
frozen slow-reference pipeline.
"""

from __future__ import annotations

import zlib

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


@rule(
    "SCHED490", "differential-reference", "error",
    "the fast pipeline's result diverges from the frozen "
    "slow-reference pipeline (II, copy count, or start cycles)",
    requires=["graph", "machine"], artifact="pipeline",
    default_enabled=False,
)
def check_differential(target, config):
    """Cross-check against :mod:`repro.baselines` on sampled loops.

    Expensive (compiles the loop twice more), so it is default-off and
    honours ``config.differential_sample``: a loop runs when the CRC of
    its name falls in the sampled residue class, giving a deterministic
    corpus-stable sample.
    """
    name = target.name or (target.graph.name if target.graph else "")
    sample = config.differential_sample
    if sample > 1 and zlib.crc32(name.encode("utf-8")) % sample != 0:
        return
    from ..baselines import (
        ReferenceCompilationError,
        reference_compile_loop,
    )
    from ..core.driver import CompilationError, compile_loop

    ddg = target.graph
    machine = target.effective_machine
    try:
        fast = compile_loop(ddg, machine)
    except (CompilationError, ValueError) as exc:
        fast = None
        fast_error = str(exc)
    try:
        slow = reference_compile_loop(ddg, machine)
    except (ReferenceCompilationError, ValueError) as exc:
        slow = None
        slow_error = str(exc)
    if (fast is None) != (slow is None):
        which, error = (
            ("fast", fast_error) if fast is None
            else ("reference", slow_error)
        )
        yield Finding(
            location="pipeline",
            message=f"only the {which} pipeline failed to compile: "
                    f"{error}",
        )
        return
    if fast is None:
        return  # both failed identically: differential holds
    if fast.ii != slow.ii:
        yield Finding(
            location="ii",
            message=f"fast pipeline II {fast.ii} != reference II "
                    f"{slow.ii}",
        )
        return
    if fast.annotated.copy_count != slow.copy_count:
        yield Finding(
            location="copies",
            message=(
                f"fast pipeline inserted "
                f"{fast.annotated.copy_count} copies, reference "
                f"{slow.copy_count}"
            ),
        )
    if dict(fast.schedule.start) != slow.start:
        diff = [
            node_id
            for node_id in fast.schedule.start
            if slow.start.get(node_id) != fast.schedule.start[node_id]
        ]
        yield Finding(
            location="start-cycles",
            message=(
                f"start cycles diverge from the reference on "
                f"{len(diff)} node(s): {sorted(diff)[:8]}"
            ),
        )
