"""``MACH2xx`` — machine-description consistency.

A machine that fails these rules can silently make whole opcode
classes unschedulable or strand values on clusters they can never
leave.  The error rules report the machine validator's findings
(:mod:`repro.machine.validate`, read through the machine's public
protocol once per machine object as :attr:`Machine.defects`): the same
checks the compile boundary rejects a machine on, so a machine mutated
after construction is caught here.  The warnings
are rules of their own; a loop that needs a class MACH202 warns about
is rejected at the compile boundary.
"""

from __future__ import annotations

from ..ddg.validate import unsupported_fu_class
from ..machine.units import REAL_FU_CLASSES
from .registry import Finding, rule


def _error_rule(code: str, name: str, description: str,
                hint: str = "") -> None:
    """Register ``code``'s rule: the machine's validator findings of
    that code, as lint findings."""
    def check(target, config):
        return [
            Finding(location=error.location, message=error.detail,
                    hint=hint)
            for error in target.machine.defects
            if error.code == code
        ]

    rule(code, name, "error", description)(check)


_error_rule(
    "MACH201", "empty-cluster",
    "a cluster with zero function units can execute nothing",
)
_error_rule(
    "MACH203", "unroutable-cluster-pair",
    "the interconnect has no route between some cluster pair, so a "
    "value produced on one can never reach the other",
    hint="add a link, or drop the stranded cluster",
)
_error_rule(
    "MACH205", "channel-inconsistency",
    "the interconnect's hop channels and its advertised channel pools "
    "disagree (bus vs point-to-point bookkeeping mismatch)",
    hint="channel_for_hop and channel_resources must agree",
)
_error_rule(
    "MACH206", "zero-capacity-channel",
    "a channel pool with per-cycle capacity <= 0 blocks every copy "
    "routed through it",
)


@rule(
    "MACH202", "unsupported-fu-class", "warning",
    "no cluster has a unit for some function-unit class, so every "
    "loop using that class is unschedulable on this machine",
)
def check_unsupported_fu_classes(target, config):
    machine = target.machine
    for fu_class in REAL_FU_CLASSES:
        error = unsupported_fu_class(machine, fu_class)
        if error is not None:
            yield Finding(
                location=error.location, message=error.detail,
                hint="loops with this opcode class can never compile",
            )


@rule(
    "MACH204", "portless-cluster", "warning",
    "a clustered machine where some cluster has zero communication "
    "read or write ports cannot move values in or out of it",
)
def check_portless_clusters(target, config):
    machine = target.machine
    if machine.is_unified:
        return
    for cluster in machine.clusters:
        if cluster.read_ports <= 0:
            yield Finding(
                location=f"cluster {cluster.index}",
                message=f"{cluster.name} has no read ports: it can "
                        f"never send a value to another cluster",
            )
        if cluster.write_ports <= 0:
            yield Finding(
                location=f"cluster {cluster.index}",
                message=f"{cluster.name} has no write ports: it can "
                        f"never receive a value from another cluster",
            )
