"""The machine validator: a machine the compiler cannot use fails first.

:func:`validate_machine` runs first in
:func:`repro.core.driver.compile_loop` and raises the loop validator's
:class:`~repro.ddg.validate.ValidationError` naming the defect's lint
code: MACH201 (a cluster with no unit), MACH203 (an unroutable cluster
pair), MACH205 (hop channels that disagree with the advertised channel
pools) or MACH206 (a channel pool of capacity <= 0).  The defects are
found once per machine object (:attr:`Machine.defects`); lint's error
rules report them.  :class:`UnitMix` refuses an empty mix through
:func:`empty_units`, and :class:`BusInterconnect` a bus pool without
buses and :class:`PointToPointInterconnect` a fabric without links
through :func:`empty_channel`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..ddg.validate import ValidationError


def empty_units(width: int, location: str) -> Optional[ValidationError]:
    """MACH201: a cluster (or unit mix) of issue width <= 0."""
    if width > 0:
        return None
    return ValidationError(
        "MACH201", location,
        f"issue width {width}: a cluster needs at least one unit",
    )


def empty_channel(channel, capacity: int) -> Optional[ValidationError]:
    """MACH206: a channel pool of per-cycle capacity <= 0."""
    if capacity > 0:
        return None
    return ValidationError(
        "MACH206", f"channel {channel!r}",
        f"channel pool {channel!r} has capacity {capacity}",
    )


def find_machine_defects(machine) -> Iterator[ValidationError]:
    """Every MACH201, MACH203, MACH205 and MACH206 defect of
    ``machine``, in that order, read through its public protocol.

    Use the memoized :attr:`Machine.defects` instead of calling this.
    """
    for cluster in machine.clusters:
        error = empty_units(cluster.width, f"cluster {cluster.index}")
        if error is not None:
            yield error
    indices = machine.cluster_indices
    fabric = machine.interconnect
    for a in indices:
        for b in indices[a + 1:]:
            try:
                fabric.route(a, b)
            except ValueError:
                yield ValidationError(
                    "MACH203", f"clusters {a}<->{b}",
                    f"no interconnect route between cluster {a} and "
                    f"cluster {b}",
                )
    pools = fabric.channel_resources()
    if fabric.broadcast and not pools and not machine.is_unified:
        yield ValidationError(
            "MACH205", "interconnect",
            "broadcast fabric advertises no channel pools",
        )
    else:  # every reachable hop's channel must be an advertised pool
        for a in indices:
            for b in indices:
                if a == b or not fabric.reachable(a, b):
                    continue
                try:
                    channel = fabric.channel_for_hop(a, b)
                except ValueError as exc:
                    yield ValidationError(
                        "MACH205", f"hop {a}->{b}",
                        f"reachable hop has no channel: {exc}",
                    )
                    continue
                if channel not in pools:
                    yield ValidationError(
                        "MACH205", f"hop {a}->{b}",
                        f"hop channel {channel!r} is not in the "
                        f"advertised channel pools",
                    )
    for channel, capacity in sorted(pools.items(), key=str):
        error = empty_channel(channel, capacity)
        if error is not None:
            yield error


def validate_machine(machine) -> None:
    """Raise the first of ``machine``'s defects, if it has any."""
    defects = machine.defects
    if defects:
        raise defects[0]
