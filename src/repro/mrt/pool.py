"""Counting modulo reservation tables for the assignment phase.

During cluster assignment operations are not yet placed in specific
cycles; what matters is whether the modulo-scheduled kernel of length II
*can* hold them.  Since every operation occupies exactly one slot of each
resource it uses (units are fully pipelined, copies take one cycle), an
MRT of length II with ``k`` units per cycle is, for assignment purposes, a
pool of ``k * II`` slots (this is exactly how the paper's Figures 7–8
treat the MRTs: as boxes filled by ops, without cycle positions).

:class:`ResourcePools` tracks one such pool per machine resource key.
The assignment algorithm measures a tentative placement on a scratch
copy of the pools (:meth:`ResourcePools.copy`) and changes the live
pools only to commit, force or evict.

The pools are two flat integer lists over the machine's
:class:`~repro.machine.machine.ResourceTable` indices.  The assignment
phase probes them with precomputed ``((index, count), ...)`` demand
vectors (:meth:`ResourcePools.fits` / :meth:`~ResourcePools.take` /
:meth:`~ResourcePools.give`), which never raise;
:meth:`ResourceTable.demand <repro.machine.machine.ResourceTable.demand>`
turns a list of resource keys into one.
"""

from __future__ import annotations

from typing import List

from ..machine.machine import Demand, Machine, ResourceKey


class PoolOverflowError(RuntimeError):
    """Raised when a reservation would exceed a pool's capacity."""

    def __init__(self, key: ResourceKey, capacity: int) -> None:
        super().__init__(f"resource pool {key!r} exhausted (capacity {capacity})")
        self.key = key
        self.capacity = capacity


class ResourcePools:
    """Per-resource slot counters of an assignment-phase MRT of length II."""

    # Slots keep copy() cheap: the assigner makes one per trial.
    __slots__ = ("table", "_capacity", "_used")

    def __init__(self, machine: Machine, ii: int) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.table = machine.resource_table
        self._capacity: List[int] = [
            per_cycle * ii for per_cycle in self.table.per_cycle
        ]
        self._used: List[int] = [0] * len(self._capacity)

    def copy(self) -> "ResourcePools":
        """Pools sharing these capacities with a private copy of the
        usage counts: the scratch a read-only probe replays a tentative
        placement on."""
        scratch = object.__new__(ResourcePools)
        scratch.table = self.table
        scratch._capacity = self._capacity
        scratch._used = self._used.copy()
        return scratch

    # ------------------------------------------------------------------
    # Demand vectors (the assignment phase's probe path)
    # ------------------------------------------------------------------
    def fits(self, demand: Demand) -> bool:
        """True when every ``(index, count)`` of ``demand`` is free."""
        used = self._used
        capacity = self._capacity
        for index, count in demand:
            if used[index] + count > capacity[index]:
                return False
        return True

    def take(self, demand: Demand) -> bool:
        """Reserve ``demand``; False, reserving nothing, when it does
        not fit."""
        # The fit test is repeated inline rather than calling fits():
        # this is the hottest call on the pools.
        used = self._used
        capacity = self._capacity
        for index, count in demand:
            if used[index] + count > capacity[index]:
                return False
        for index, count in demand:
            used[index] += count
        return True

    def give(self, demand: Demand) -> None:
        """Release ``demand``, which the caller took earlier."""
        used = self._used
        for index, count in demand:
            used[index] -= count

    def overflow_error(self, demand: Demand) -> "PoolOverflowError":
        """The error naming the first pool of ``demand`` that does not
        fit (``demand`` must not fit)."""
        for index, count in demand:
            if self._used[index] + count > self._capacity[index]:
                return PoolOverflowError(
                    self.table.keys[index], self._capacity[index]
                )
        raise ValueError("the demand fits")

    # ------------------------------------------------------------------
    # Cluster-level summaries used by the selection heuristic
    # ------------------------------------------------------------------
    def _free_of(self, indices) -> int:
        capacity = self._capacity
        used = self._used
        total = 0
        for index in indices:
            total += capacity[index] - used[index]
        return total

    def free_cluster_slots(self, cluster_index: int) -> int:
        """Free slots of every pool local to one cluster (issue + ports).

        This is the "free resources on the cluster" quantity maximized by
        the last selection of the paper's Figure 10.
        """
        return self._free_of(self.table.local[cluster_index])

    def free_channel_slots_from(self, cluster_index: int) -> int:
        """Free channel slots usable by copies leaving ``cluster_index``.

        For buses this is the free bus slots; for point-to-point fabrics it
        is the sum of free slots on links incident to the cluster.
        """
        return self._free_of(self.table.channels[cluster_index])

    def max_reservable_copies(self, cluster_index: int) -> int:
        """MRC_C — room for additional copies out of cluster C.

        A copy out of C consumes one of C's read ports and one channel
        slot, so the room is the smaller of the two (target-side write
        ports are not charged: the targets are unknown at prediction
        time, exactly as in the paper's definition of MRC).
        """
        read_port = self.table.read_port[cluster_index]
        if read_port is None:  # unified machine: nothing to copy to
            return 0
        read_free = self._capacity[read_port] - self._used[read_port]
        return min(read_free, self.free_channel_slots_from(cluster_index))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        used = sum(self._used)
        cap = sum(self._capacity)
        return f"ResourcePools(used={used}/{cap})"
