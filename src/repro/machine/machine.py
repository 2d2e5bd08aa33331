"""Whole-machine descriptions.

A :class:`Machine` is a list of clusters plus an interconnect.  It is the
single authority on *resource keys*: hashable identifiers for every counted
per-cycle resource, used both by the assignment phase's counting pools
(:mod:`repro.mrt.pool`) and by the scheduler's time-indexed reservation
table (:mod:`repro.mrt.table`).

Resource keys
-------------
* ``("issue", c, "gp")``        — one of cluster ``c``'s GP issue slots
* ``("issue", c, FuClass.X)``   — one of cluster ``c``'s class-X units
* ``("rd", c)`` / ``("wr", c)`` — a communication read/write port
* ``"bus"`` or ``("link", a, b)`` — a shared channel, per the interconnect

The assignment phase probes these pools hundreds of thousands of times
per corpus, so :attr:`Machine.resource_table` interns every key once
per machine into a dense :class:`ResourceTable`: its pools are flat
integer lists and a demand is a ``((index, count), ...)`` vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..ddg.opcodes import FuClass, Opcode, fu_class_of
from .cluster import ClusterSpec
from .interconnect import Interconnect, NoInterconnect
from .units import UnitMix

ResourceKey = Hashable
#: Slots demanded per dense resource index: ``((index, count), ...)``.
Demand = Tuple[Tuple[int, int], ...]


class ResourceTable:
    """Every resource key of one machine, interned to a dense index.

    Indices follow :meth:`Machine.resource_capacities` order.  Beside the
    key <-> index maps the table holds what the assignment phase asks of
    a cluster, precomputed as index tuples: its issue pools, the channel
    pools incident to it, its communication ports, and the issue-pool
    demand of one operation of each FU class placed on it.
    """

    def __init__(self, machine: "Machine") -> None:
        capacities = machine.resource_capacities()
        #: Index -> key.
        self.keys: Tuple[ResourceKey, ...] = tuple(capacities)
        #: Key -> index.
        self.index: Dict[ResourceKey, int] = {
            key: i for i, key in enumerate(self.keys)
        }
        #: Index -> slots per cycle.
        self.per_cycle: Tuple[int, ...] = tuple(capacities.values())
        index = self.index
        clusters = machine.cluster_indices
        #: Cluster -> indices of its issue pools.
        self.issue: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                i for i, key in enumerate(self.keys)
                if isinstance(key, tuple) and len(key) == 3
                and key[0] == "issue" and key[1] == c
            )
            for c in clusters
        )
        channel_keys = list(machine.interconnect.channel_resources())
        #: Cluster -> indices of the channel pools a copy leaving it may
        #: use: every bus, or the links incident to it.
        self.channels: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                index[key] for key in channel_keys
                if key == "bus" or (
                    isinstance(key, tuple) and key[0] == "link"
                    and c in key[1:]
                )
            )
            for c in clusters
        )
        #: Cluster -> index of its read / write port pool (None on a
        #: unified machine, which has no ports).
        self.read_port: Tuple[Optional[int], ...] = tuple(
            index.get(machine.read_port_key(c)) for c in clusters
        )
        self.write_port: Tuple[Optional[int], ...] = tuple(
            index.get(machine.write_port_key(c)) for c in clusters
        )
        #: Cluster -> its issue pools followed by its ports: the "free
        #: resources on the cluster" of the paper's Figure 10.
        self.local: Tuple[Tuple[int, ...], ...] = tuple(
            self.issue[c] + tuple(
                i for i in (self.read_port[c], self.write_port[c])
                if i is not None
            )
            for c in clusters
        )
        #: FU class -> per-cluster demand of one op of that class,
        #: ``((issue index, 1),)``, or None where the cluster has no unit
        #: for it (copies never have one).
        self.issue_demand: Dict[FuClass, Tuple[Optional[Demand], ...]] = {
            fu_class: tuple(
                ((index[machine.issue_key(c, fu_class)], 1),)
                if machine.cluster(c).issue_capacity(fu_class) > 0
                else None
                for c in clusters
            )
            for fu_class in FuClass
        }
        #: Copy-plan templates memoized by :mod:`repro.core.copies`:
        #: ``share_broadcast`` -> per home cluster, needed-cluster
        #: bitmask -> template.
        self.copy_templates: Dict[bool, Tuple[Dict[int, object], ...]] = {
            share: tuple({} for _ in clusters) for share in (True, False)
        }

    def demand(self, keys: Iterable[ResourceKey]) -> Demand:
        """``keys`` as a demand vector; a repeated key demands one slot
        per repetition.  Raises ``KeyError`` for an unknown key."""
        counts: Dict[int, int] = {}
        index = self.index
        for key in keys:
            i = index[key]
            counts[i] = counts.get(i, 0) + 1
        return tuple(counts.items())


@dataclass(frozen=True)
class Machine:
    """A clustered (or unified) VLIW machine."""

    clusters: Tuple[ClusterSpec, ...]
    interconnect: Interconnect
    name: str = ""

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("a machine needs at least one cluster")
        for expected, cluster in enumerate(self.clusters):
            if cluster.index != expected:
                raise ValueError(
                    f"cluster indices must be 0..n-1 in order, got "
                    f"{cluster.index} at position {expected}"
                )
        gp_flags = {c.units.general_purpose for c in self.clusters}
        if len(gp_flags) != 1:
            raise ValueError("mixing GP and FS clusters is not supported")

    def __getstate__(self) -> Dict[str, object]:
        # The resource table is derived and rebuilt on first use: it
        # stays out of pickles, so task payloads carrying a machine are
        # the same bytes before and after it compiles anything.
        state = dict(self.__dict__)
        state.pop("resource_table", None)
        return state

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    @property
    def cluster_indices(self) -> List[int]:
        """All cluster indices, ``0 .. n_clusters - 1``."""
        return list(range(len(self.clusters)))

    @property
    def is_unified(self) -> bool:
        """True for a single-cluster (non-clustered) machine."""
        return len(self.clusters) == 1

    @property
    def general_purpose(self) -> bool:
        """True when units are general purpose (GP discipline)."""
        return self.clusters[0].units.general_purpose

    @property
    def total_width(self) -> int:
        """Total issue width across clusters."""
        return sum(c.width for c in self.clusters)

    def issue_capacity(self, fu_class: FuClass) -> int:
        """Machine-wide units per cycle for ``fu_class`` operations."""
        return sum(c.issue_capacity(fu_class) for c in self.clusters)

    def cluster(self, index: int) -> ClusterSpec:
        """The cluster spec at ``index``."""
        return self.clusters[index]

    # ------------------------------------------------------------------
    # Resource keys
    # ------------------------------------------------------------------
    def issue_key(self, cluster_index: int, fu_class: FuClass) -> ResourceKey:
        """Key of the issue-slot pool an op of ``fu_class`` consumes."""
        if self.general_purpose:
            return ("issue", cluster_index, "gp")
        return ("issue", cluster_index, fu_class)

    def read_port_key(self, cluster_index: int) -> ResourceKey:
        """Key of ``cluster_index``'s communication read-port pool."""
        return ("rd", cluster_index)

    def write_port_key(self, cluster_index: int) -> ResourceKey:
        """Key of ``cluster_index``'s communication write-port pool."""
        return ("wr", cluster_index)

    def resource_capacities(self) -> Dict[ResourceKey, int]:
        """Per-cycle capacity of every counted resource pool."""
        capacities: Dict[ResourceKey, int] = {}
        for cluster in self.clusters:
            if self.general_purpose:
                capacities[("issue", cluster.index, "gp")] = cluster.width
            else:
                for fu_class, count in cluster.units.per_class.items():
                    capacities[("issue", cluster.index, fu_class)] = count
            if not self.is_unified:
                capacities[("rd", cluster.index)] = cluster.read_ports
                capacities[("wr", cluster.index)] = cluster.write_ports
        capacities.update(self.interconnect.channel_resources())
        return capacities

    @cached_property
    def resource_table(self) -> ResourceTable:
        """The dense index table of this machine's resource keys (built
        on first use, never pickled)."""
        return ResourceTable(self)

    # ------------------------------------------------------------------
    # Resource demands
    # ------------------------------------------------------------------
    def op_resources(
        self, opcode: Opcode, cluster_index: int
    ) -> List[ResourceKey]:
        """Pools one non-copy operation consumes on ``cluster_index``."""
        if opcode is Opcode.COPY:
            raise ValueError("copies use copy_hop_resources, not op_resources")
        fu_class = fu_class_of(opcode)
        if self.cluster(cluster_index).issue_capacity(fu_class) <= 0:
            raise ValueError(
                f"cluster {cluster_index} has no {fu_class} unit"
            )
        return [self.issue_key(cluster_index, fu_class)]

    def copy_hop_resources(
        self, src_cluster: int, dst_clusters: Sequence[int]
    ) -> List[ResourceKey]:
        """Pools one copy from ``src_cluster`` to ``dst_clusters`` consumes.

        For a broadcast fabric ``dst_clusters`` may hold several targets
        (one bus slot, one source read port, a write port per target).  For
        a point-to-point fabric it must hold exactly one neighboring
        cluster.
        """
        if not dst_clusters:
            raise ValueError("a copy needs at least one target cluster")
        if not self.interconnect.broadcast and len(dst_clusters) != 1:
            raise ValueError(
                "non-broadcast fabrics deliver to one cluster per copy"
            )
        resources: List[ResourceKey] = [self.read_port_key(src_cluster)]
        for dst in dst_clusters:
            if dst == src_cluster:
                raise ValueError("copy source and target clusters coincide")
            if not self.interconnect.reachable(src_cluster, dst):
                raise ValueError(
                    f"cluster {dst} is not one hop from {src_cluster}"
                )
            resources.append(self.write_port_key(dst))
        resources.append(
            self.interconnect.channel_for_hop(src_cluster, dst_clusters[0])
        )
        return resources

    def copy_route(self, src_cluster: int, dst_cluster: int) -> List[int]:
        """Cluster path a value travels from src to dst (inclusive)."""
        return self.interconnect.route(src_cluster, dst_cluster)

    # ------------------------------------------------------------------
    # Derived machines
    # ------------------------------------------------------------------
    def unified_equivalent(self) -> "Machine":
        """The equally wide single-cluster machine the paper compares to."""
        if self.is_unified:
            return self
        merged: UnitMix = self.clusters[0].units
        for cluster in self.clusters[1:]:
            merged = merged.merged_with(cluster.units)
        unified_cluster = ClusterSpec(
            index=0, units=merged, read_ports=0, write_ports=0
        )
        return Machine(
            clusters=(unified_cluster,),
            interconnect=NoInterconnect(),
            name=f"{self.name}-unified" if self.name else "unified",
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "GP" if self.general_purpose else "FS"
        return (
            f"Machine({self.name or 'anon'}: {self.n_clusters} x "
            f"{kind}{self.clusters[0].width}, {self.interconnect})"
        )
