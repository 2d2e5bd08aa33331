"""Register allocation via modulo variable expansion (MVE).

Without rotating register files, a value whose lifetime exceeds II would
be clobbered by the next iteration's instance.  MVE (Rau et al.,
PLDI'92 — the paper's reference [21]) unrolls the kernel ``k`` times,
where ``k`` is the maximum number of simultaneously live instances of
any value, and renames: instance ``j`` of a value gets its own register.

Allocation is then *cyclic-interval packing* over the unrolled span of
``k × II`` cycles: every lifetime contributes ``k`` intervals (one per
unroll instance, shifted by II each), and a first-fit scan packs them
into the fewest registers per cluster.  The result is checked by an
independent overlap verifier and reported next to the MaxLive lower
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..scheduling.schedule import Schedule
from .lifetimes import Lifetime, extract_lifetimes


class RegisterAssignment(NamedTuple):
    """One unroll instance of one value mapped to a physical register.

    A ``NamedTuple``: allocations are rebuilt per compiled loop on the
    certify gate's hot path, and one assignment exists per unroll instance
    per lifetime.
    """

    producer: int
    cluster: int
    instance: int
    register: int
    start_cycle: int
    length: int


@dataclass
class MveAllocation:
    """Complete MVE register allocation of one schedule."""

    ii: int
    unroll: int
    assignments: List[RegisterAssignment] = field(default_factory=list)
    registers_per_cluster: Dict[int, int] = field(default_factory=dict)

    @property
    def span(self) -> int:
        """Cycles of the unrolled kernel."""
        return self.unroll * self.ii

    def registers(self, cluster: int) -> int:
        """Physical registers the allocation uses on one cluster."""
        return self.registers_per_cluster.get(cluster, 0)

    @property
    def total_registers(self) -> int:
        """Registers across all clusters."""
        return sum(self.registers_per_cluster.values())


def _occupied_cycles(start: int, length: int, span: int) -> List[int]:
    """Cycles (mod span) a lifetime instance occupies.

    Zero-length lifetimes (value read the cycle it appears) still hold a
    register for that single cycle.
    """
    length = max(1, length)
    return [(start + offset) % span for offset in range(min(length, span))]


def allocate_mve(
    schedule: Schedule, lifetimes: Optional[List[Lifetime]] = None
) -> MveAllocation:
    """Allocate registers for ``schedule`` by MVE + first-fit packing.

    ``lifetimes`` lets a caller that already extracted the schedule's
    lifetimes (the certificate emitter does) skip the second extraction.
    """
    ii = schedule.ii
    if lifetimes is None:
        lifetimes = extract_lifetimes(schedule)
    unroll = 1
    for lifetime in lifetimes:
        instances = -(-(lifetime.death - lifetime.birth) // ii)
        if instances > unroll:
            unroll = instances
    span = unroll * ii
    allocation = MveAllocation(ii=ii, unroll=unroll)

    by_cluster: Dict[int, List[Lifetime]] = {}
    for lifetime in lifetimes:
        by_cluster.setdefault(lifetime.cluster, []).append(lifetime)

    for cluster, cluster_lifetimes in sorted(by_cluster.items()):
        # Longest lifetimes first: classic first-fit-decreasing.  Each
        # register's occupancy is one int bitmask over the span, so the
        # fit probe is a single AND instead of a per-cycle scan.
        cluster_lifetimes.sort(key=lambda lt: (-lt.length, lt.producer))
        register_busy: List[int] = []
        emit = allocation.assignments.append
        full = (1 << span) - 1
        for lifetime in cluster_lifetimes:
            length = lifetime.death - lifetime.birth
            if length < 0:
                length = 0
            # The bitmask of _occupied_cycles: a block of ``length``
            # bits (at least one, at most ``span``) at the start row,
            # its overflow past the kernel end folded back with one
            # shift, which is exact since the block wraps at most once.
            # The block is built once per lifetime; each unroll
            # instance moves the start row by II (mod span).
            block_bits = (1 << max(1, min(length, span))) - 1
            row = lifetime.birth % span
            for instance in range(unroll):
                block = block_bits << row
                mask = (block >> span) | (block & full)
                chosen = None
                for register, busy in enumerate(register_busy):
                    if not busy & mask:
                        chosen = register
                        break
                if chosen is None:
                    register_busy.append(0)
                    chosen = len(register_busy) - 1
                register_busy[chosen] |= mask
                emit(
                    RegisterAssignment(
                        lifetime.producer, cluster, instance,
                        chosen, row, length,
                    )
                )
                row += ii
                if row >= span:
                    row -= span
        allocation.registers_per_cluster[cluster] = len(register_busy)
    return allocation


def verify_allocation(allocation: MveAllocation) -> List[str]:
    """Independent overlap check; returns violations (empty = valid).

    The clean path is a bitmask sweep per (cluster, register); only
    when some mask collides (or a register escapes its file) does the
    slow cycle-by-cycle walk run to name the offending value pairs.
    """
    span = allocation.span
    masks: Dict[Tuple[int, int], int] = {}
    file_sizes = allocation.registers_per_cluster
    full = (1 << span) - 1
    clean = True
    for _, cluster, _, register, start_cycle, length in (
        allocation.assignments
    ):
        key = (cluster, register)
        block = ((1 << max(1, min(length, span))) - 1) << (
            start_cycle % span
        )
        mask = (block >> span) | (block & full)
        busy = masks.get(key, 0)
        if busy & mask or register >= file_sizes.get(cluster, 0):
            clean = False
            break
        masks[key] = busy | mask
    if clean:
        return []
    problems: List[str] = []
    occupancy: Dict[Tuple[int, int, int], RegisterAssignment] = {}
    for assignment in allocation.assignments:
        for cycle in _occupied_cycles(
            assignment.start_cycle, assignment.length, span
        ):
            key = (assignment.cluster, assignment.register, cycle)
            other = occupancy.get(key)
            if other is not None and (
                other.producer != assignment.producer
                or other.instance != assignment.instance
            ):
                problems.append(
                    f"C{assignment.cluster} r{assignment.register} cycle "
                    f"{cycle}: value {assignment.producer}.{assignment.instance}"
                    f" collides with {other.producer}.{other.instance}"
                )
            occupancy[key] = assignment
    for assignment in allocation.assignments:
        if assignment.register >= allocation.registers(assignment.cluster):
            problems.append(
                f"assignment uses register {assignment.register} beyond "
                f"cluster C{assignment.cluster}'s file"
            )
    return problems
