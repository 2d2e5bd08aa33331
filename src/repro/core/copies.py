"""Copy planning: which copy operations a partial assignment implies.

A *required copy* (paper Section 4.2) exists whenever a value producer and
one of its consumers sit on different clusters.  This module turns the
question "which copies does producer ``p`` need right now?" into a pure
function of ``(machine, producer cluster, clusters that need the value)``:

* on a **bused** machine the answer is a single broadcast copy delivering
  to every needing cluster (the result of an operation is communicated at
  most once — paper Section 4.2's ``UpperBound`` rationale);
* on a **point-to-point** machine it is one copy per directed hop of the
  union of shortest routes from the producer's cluster to every needing
  cluster, emitted in breadth-first order so each hop's source cluster is
  already reached.

:class:`RoutingState` keeps these plans current while the assignment
algorithm assigns, evicts, and re-assigns nodes, reserving and releasing
the copies' port/bus/link slots in the shared :class:`ResourcePools`.
A plan's shape depends only on the producer's cluster and the set of
clusters needing the value, so each shape is built once per machine as
a :class:`CopyTemplate` (specs, pool keys and their demand vector),
keyed on the home cluster and a bitmask of the needed clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Set, Tuple, Union

from ..ddg.graph import Ddg
from ..machine.machine import Demand, Machine, ResourceKey
from ..mrt.pool import ResourcePools
from ..obs.trace import count as obs_count


class CopyRoutingError(RuntimeError):
    """A value cannot be routed between two clusters on this fabric.

    Raised by copy planning when the interconnect has no path (e.g. a
    partitioned point-to-point topology).  The assignment algorithm
    treats it like a resource shortage: the candidate is infeasible, and
    eviction of the unreachable consumer repairs forced placements.
    """


@dataclass(frozen=True)
class CopySpec:
    """One copy operation: read on ``src_cluster``, write on ``targets``."""

    src_cluster: int
    targets: Tuple[int, ...]


@dataclass(frozen=True)
class CopyPlan:
    """All copies one producer currently requires, in dependence order."""

    producer: int
    specs: Tuple[CopySpec, ...]
    resources: Tuple[ResourceKey, ...]

    @property
    def copy_count(self) -> int:
        """Number of copy operations (the paper's RC of the producer)."""
        return len(self.specs)


def plan_copies(
    machine: Machine,
    producer: int,
    producer_cluster: int,
    needed_clusters: Set[int],
    share_broadcast: bool = True,
) -> CopyPlan:
    """Compute the copy plan moving ``producer``'s value where needed.

    ``share_broadcast=False`` is an ablation knob: on bused machines it
    emits one copy per target cluster instead of a single broadcast.
    """
    needed = {c for c in needed_clusters if c != producer_cluster}
    if not needed:
        return CopyPlan(producer=producer, specs=(), resources=())
    if machine.interconnect.broadcast:
        if share_broadcast:
            target_groups = [tuple(sorted(needed))]
        else:
            target_groups = [(target,) for target in sorted(needed)]
        specs = tuple(
            CopySpec(src_cluster=producer_cluster, targets=targets)
            for targets in target_groups
        )
        resources: List[ResourceKey] = []
        for spec in specs:
            resources.extend(
                machine.copy_hop_resources(
                    spec.src_cluster, list(spec.targets)
                )
            )
        return CopyPlan(
            producer=producer, specs=specs, resources=tuple(resources)
        )

    # Point-to-point: union of shortest routes, hop copies in BFS order.
    hop_edges: List[Tuple[int, int]] = []
    for target in sorted(needed):
        try:
            route = machine.copy_route(producer_cluster, target)
        except ValueError as exc:
            obs_count("copies.routing_errors")
            raise CopyRoutingError(str(exc)) from exc
        for a, b in zip(route, route[1:]):
            if (a, b) not in hop_edges:
                hop_edges.append((a, b))
    ordered: List[Tuple[int, int]] = []
    reached = {producer_cluster}
    remaining = list(hop_edges)
    while remaining:
        progressed = False
        for hop in list(remaining):
            if hop[0] in reached:
                ordered.append(hop)
                reached.add(hop[1])
                remaining.remove(hop)
                progressed = True
        if not progressed:  # pragma: no cover - routes start at producer
            raise RuntimeError(f"disconnected copy route {remaining}")
    specs = tuple(CopySpec(src_cluster=a, targets=(b,)) for a, b in ordered)
    resources: List[ResourceKey] = []
    for spec in specs:
        resources.extend(
            machine.copy_hop_resources(spec.src_cluster, list(spec.targets))
        )
    return CopyPlan(
        producer=producer, specs=specs, resources=tuple(resources)
    )


def _clusters_in(mask: int) -> Set[int]:
    """The cluster indices whose bits are set in ``mask``."""
    return {c for c in range(mask.bit_length()) if mask >> c & 1}


class CopyTemplate(NamedTuple):
    """A producer-independent copy plan plus its pool demand vector."""

    specs: Tuple[CopySpec, ...]
    resources: Tuple[ResourceKey, ...]
    demand: Demand


@dataclass
class RoutingSnapshot:
    """Rollback point for :class:`RoutingState` (pools snapshot separate)."""

    cluster_of: Dict[int, int]
    #: Producer -> plan: a :class:`CopyTemplate` here, a
    #: :class:`CopyPlan` in the frozen reference (repro.baselines).
    plans: Dict[int, Union[CopyTemplate, CopyPlan]]
    #: -1 in the frozen reference's snapshots, which it restores itself.
    total_copies: int = -1


class RoutingState:
    """Live copy plans + cluster map during assignment.

    All pool reservations for copies are owned here; the caller owns the
    reservations for the operations' own issue slots.
    """

    def __init__(
        self,
        ddg: Ddg,
        machine: Machine,
        pools: ResourcePools,
        share_broadcast: bool = True,
    ) -> None:
        self.ddg = ddg
        self.machine = machine
        self.pools = pools
        self.share_broadcast = share_broadcast
        self.cluster_of: Dict[int, int] = {}
        # Producer -> its current (non-empty) plan.  Insertion order
        # numbers the copy nodes of the annotated graph, so rollback
        # restores a copy of the dict rather than undoing changes.
        self._plans: Dict[int, CopyTemplate] = {}
        self._total_copies = 0
        # Value-edge adjacency — producer -> consumers and consumer ->
        # producers over register (value) edges only, excluding
        # self-dependences (which never cross clusters).  Taken from the
        # compiled DDG view: the driver re-runs assignment at every
        # candidate II, and this fan-out is II-invariant.  The tuples are
        # shared and read-only.
        view = ddg.view()
        self._produces_value = view.produces_value
        self._value_consumers = view.value_consumers
        self._value_producers = view.value_producers
        # Home cluster -> needed-cluster bitmask -> template, shared by
        # every assignment on this machine.  Only routable shapes are
        # memoized (a CopyRoutingError is re-derived, and counted, on
        # every attempt).
        self._templates = machine.resource_table.copy_templates[
            share_broadcast
        ]

    # ------------------------------------------------------------------
    # Value-flow queries
    # ------------------------------------------------------------------
    def produces_value(self, node_id: int) -> bool:
        """True when ``node_id`` writes a register result."""
        return self._produces_value[node_id]

    def value_consumers(self, producer: int) -> List[int]:
        """Distinct nodes consuming ``producer``'s register value."""
        return list(self._value_consumers[producer])

    def value_producers(self, consumer: int) -> List[int]:
        """Distinct nodes whose register value ``consumer`` reads."""
        return list(self._value_producers[consumer])

    def unassigned_value_consumers(self, producer: int) -> int:
        """The paper's ``UnassignedSuccessors(N_i)`` term."""
        return sum(
            1
            for consumer in self._value_consumers[producer]
            if consumer not in self.cluster_of
        )

    def _needed_mask(self, producer: int, home: int) -> int:
        """Bitmask of the clusters other than ``home`` holding an
        assigned consumer of ``producer``."""
        cluster_of = self.cluster_of
        mask = 0
        for consumer in self._value_consumers[producer]:
            cluster = cluster_of.get(consumer)
            if cluster is not None:
                mask |= 1 << cluster
        return mask & ~(1 << home)

    def needed_clusters(self, producer: int) -> Set[int]:
        """Clusters (other than the producer's) that need the value now."""
        home = self.cluster_of.get(producer)
        if home is None:
            return set()
        return _clusters_in(self._needed_mask(producer, home))

    def required_copies(self, producer: int) -> int:
        """RC(producer): copies the current assignment forces on it."""
        plan = self._plans.get(producer)
        return 0 if plan is None else len(plan.specs)

    def total_copies(self) -> int:
        """Total copy operations implied by the current assignment."""
        return self._total_copies

    def plans(self) -> Dict[int, CopyPlan]:
        """Producer -> current plan (only producers with copies)."""
        return {
            producer: CopyPlan(
                producer=producer, specs=plan.specs,
                resources=plan.resources,
            )
            for producer, plan in self._plans.items()
        }

    # ------------------------------------------------------------------
    # Replanning
    # ------------------------------------------------------------------
    def affected_producers(self, node_id: int) -> List[int]:
        """Producers whose plan may change when ``node_id`` (re)moves."""
        affected = []
        if self._produces_value[node_id]:
            affected.append(node_id)
        for producer in self._value_producers[node_id]:
            if producer not in affected:
                affected.append(producer)
        return affected

    def _template(self, producer: int, home: int, mask: int) -> CopyTemplate:
        """The plan moving ``producer``'s value from ``home`` to the
        clusters in ``mask``; raises :class:`CopyRoutingError` when the
        fabric cannot route it."""
        templates = self._templates[home]
        template = templates.get(mask)
        if template is None:
            plan = plan_copies(
                self.machine, producer, home, _clusters_in(mask),
                share_broadcast=self.share_broadcast,
            )
            template = CopyTemplate(
                plan.specs, plan.resources,
                self.machine.resource_table.demand(plan.resources),
            )
            templates[mask] = template
        return template

    def replan(self, producer: int) -> bool:
        """Recompute ``producer``'s plan; False when it does not fit.

        The old reservation is released first.  On False (the plan
        overflows a pool, or the fabric cannot route the value) the
        producer holds no plan and no reservation: callers either roll
        back via snapshots or evict nodes and call :meth:`replan` again.
        """
        obs_count("copies.replans")
        old = self._plans.pop(producer, None)
        if old is not None:
            self._total_copies -= len(old.specs)
            self.pools.give(old.demand)
        home = self.cluster_of.get(producer)
        if home is None:
            return True
        mask = self._needed_mask(producer, home)
        if not mask:
            return True
        try:
            template = self._template(producer, home, mask)
        except CopyRoutingError:
            return False
        if not self.pools.take(template.demand):
            obs_count("copies.replan_failures")
            return False
        self._plans[producer] = template
        self._total_copies += len(template.specs)
        return True

    def assign_unplanned(self, node_id: int, cluster: int) -> None:
        """Record an assignment *without* replanning any copies.

        Used by tentative evaluation, forced placement and conflict
        counting, which replan the affected producers one at a time so
        failures can be attributed to individual predecessor/successor
        relationships.
        """
        if node_id in self.cluster_of:
            raise ValueError(f"node {node_id} is already assigned")
        self.cluster_of[node_id] = cluster

    def set_cluster(self, node_id: int, cluster: int) -> None:
        """Assign ``node_id`` to ``cluster`` and replan affected copies.

        The caller must have reserved the node's own issue slot already.
        Raises :class:`PoolOverflowError` when some required copy does not
        fit (:class:`CopyRoutingError` when it cannot be routed); state is
        then inconsistent and must be rolled back via snapshot (tentative
        mode) or repaired by eviction (forced mode).
        """
        self.assign_unplanned(node_id, cluster)
        for producer in self.affected_producers(node_id):
            if not self.replan(producer):
                home = self.cluster_of[producer]
                template = self._template(
                    producer, home, self._needed_mask(producer, home)
                )
                raise self.pools.overflow_error(template.demand)

    def unassign_unplanned(self, node_id: int) -> None:
        """Drop an assignment *without* replanning any copies.

        The caller must afterwards replan every producer in
        :meth:`affected_producers` (handling overflow by further
        eviction): on point-to-point fabrics a shrunken consumer set can
        reroute a plan onto different links, so even removal may demand
        resources that are not free.
        """
        if node_id not in self.cluster_of:
            raise ValueError(f"node {node_id} is not assigned")
        del self.cluster_of[node_id]

    # ------------------------------------------------------------------
    # Snapshots (pools are snapshotted separately by the caller)
    # ------------------------------------------------------------------
    def snapshot(self) -> RoutingSnapshot:
        """Capture cluster map + plans for rollback."""
        return RoutingSnapshot(
            cluster_of=dict(self.cluster_of),
            plans=dict(self._plans),
            total_copies=self._total_copies,
        )

    def restore(self, snap: RoutingSnapshot) -> None:
        """Roll back to ``snap`` (pair with ``pools.restore``)."""
        self.cluster_of = dict(snap.cluster_of)
        self._plans = dict(snap.plans)
        self._total_copies = snap.total_copies
