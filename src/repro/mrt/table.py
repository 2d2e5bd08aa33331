"""Time-indexed modulo reservation table for the scheduling phase.

The scheduler places operation ``op`` at absolute cycle ``t``; in the
software-pipelined kernel it occupies its resources in row ``t mod II``.
The table tracks, per resource key and row, which operations hold slots,
which lets the iterative scheduler both test availability and identify the
holders it must displace when forcing a placement (Rau's iterative modulo
scheduling).

Occupancy is maintained twice, on purpose:

* per-(key, row) integer counters (``_usage``: one row-indexed array per
  key), which make availability probes a few integer compares — the
  scheduler probes up to II cycles per placement, so this is the hottest
  query in the pipeline;
* per-(key, row) holder lists (``_slots``), consulted only by
  :meth:`conflicting_ops` and :meth:`remove` to identify displacement
  victims.

The scheduler pre-compiles each operation's resource demand once per
scheduling attempt with :meth:`compile_demand` and probes with
:meth:`probe`.  :meth:`place` books without re-checking the fit: the
scheduler displaces every op :meth:`conflicting_ops` names first, and
certify's CERT605 recounts every slot of the finished kernel.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set, Tuple

from ..machine.machine import Machine, ResourceKey

OpId = Hashable

#: One key's pre-resolved probe inputs: (row-usage array, capacity, slots
#: demanded).  See :meth:`ModuloReservationTable.compile_demand`.
DemandProfile = List[Tuple[List[int], int, int]]

class ModuloReservationTable:
    """Per-cycle-row resource occupancy of a kernel of length II."""

    def __init__(self, machine: Machine, ii: int) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.ii = ii
        self._capacity: Dict[ResourceKey, int] = machine.resource_capacities()
        # (key, row) -> list of op ids holding a slot there.  Entries are
        # removed as soon as their list empties.
        self._slots: Dict[Tuple[ResourceKey, int], List[OpId]] = {}
        # key -> per-row occupancy counters (len == II).
        self._usage: Dict[ResourceKey, List[int]] = {
            key: [0] * ii for key in self._capacity
        }
        # op id -> list of (key, row) it holds.
        self._held: Dict[OpId, List[Tuple[ResourceKey, int]]] = {}

    def _occupancy(self, key: ResourceKey, row: int) -> List[OpId]:
        return self._slots.get((key, row), [])

    def compile_demand(self, keys: Iterable[ResourceKey]) -> DemandProfile:
        """Pre-resolve a resource demand multiset for repeated probing.

        Aggregates duplicate keys and binds each to its usage array and
        capacity, so :meth:`probe` touches no dictionaries.  The profile
        stays valid for this table's lifetime (usage arrays are updated
        in place by :meth:`place`/:meth:`remove`).
        """
        demand: Dict[ResourceKey, int] = {}
        for key in keys:
            demand[key] = demand.get(key, 0) + 1
        profile: DemandProfile = []
        for key, count in demand.items():
            capacity = self._capacity.get(key)
            if capacity is None:
                raise KeyError(f"unknown resource key {key!r}")
            profile.append((self._usage[key], capacity, count))
        return profile

    def probe(self, profile: DemandProfile, cycle: int) -> bool:
        """True when ``profile``'s demand fits in ``cycle``'s row."""
        row = cycle % self.ii
        for usage, capacity, count in profile:
            if usage[row] + count > capacity:
                return False
        return True

    def conflicting_ops(
        self, keys: Iterable[ResourceKey], cycle: int
    ) -> Set[OpId]:
        """Operations currently holding the slots ``keys`` needs at
        ``cycle``.

        Used by forced placement: displacing all of them guarantees the
        reservation will fit (each key's full row occupancy is returned
        when the row is saturated for that key).
        """
        row = cycle % self.ii
        conflicting: Set[OpId] = set()
        demand: Dict[ResourceKey, int] = {}
        for key in keys:
            demand[key] = demand.get(key, 0) + 1
        for key, count in demand.items():
            holders = self._occupancy(key, row)
            if len(holders) + count > self._capacity[key]:
                conflicting.update(holders)
        return conflicting

    def place(
        self, op_id: OpId, keys: Iterable[ResourceKey], cycle: int
    ) -> None:
        """Reserve one slot of each key at ``cycle`` for ``op_id``.

        The fit is not re-checked: the caller probed, or displaced every
        op :meth:`conflicting_ops` names, before placing.
        """
        if op_id in self._held:
            raise ValueError(f"operation {op_id!r} is already placed")
        row = cycle % self.ii
        held = []
        slots = self._slots
        usage = self._usage
        for key in keys:
            slot = (key, row)
            slots.setdefault(slot, []).append(op_id)
            usage[key][row] += 1
            held.append(slot)
        self._held[op_id] = held

    def remove(self, op_id: OpId) -> None:
        """Release every slot held by ``op_id``."""
        held = self._held.pop(op_id, None)
        if held is None:
            raise ValueError(f"operation {op_id!r} is not placed")
        for key, row in held:
            holders = self._slots[(key, row)]
            holders.remove(op_id)
            if not holders:
                del self._slots[(key, row)]
            self._usage[key][row] -= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModuloReservationTable(ii={self.ii}, "
            f"placed={len(self._held)})"
        )
