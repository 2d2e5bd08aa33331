"""Frozen seed implementation of the cluster assignment phase.

Companion to :mod:`repro.baselines.reference_pipeline`: the assignment
phase exactly as it stood before the hot-path overhaul — list-scanning
resource pools, a routing state that rebuilds value adjacency from the
graph and replans copies without memoization, the uncached prediction
formulas, and the ``min()``-scan work list of the assigner.  Shapes are
identical to the optimized phase (same Figure 10/11 decisions, same
committed clusters and copy plans); only the data structures differ.

The pure decision modules the overhaul did not touch (``selection``,
``variants``, ``plan_copies`` itself) are shared with the production
pipeline rather than duplicated.  The annotated graph is built by the
seed builder below, so a fault in the derived kernel graph shows as a
difference from this reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core.copies import (
    CopyPlan,
    CopyRoutingError,
    CopyTemplate,
    plan_copies,
)
from ..core.ordering import AssignmentOrder
from ..core.selection import (
    CandidateInfo,
    select_best_cluster,
    select_failure_cluster,
)
from ..core.variants import HEURISTIC_ITERATIVE, AssignmentConfig
from ..ddg.graph import Ddg
from ..ddg.opcodes import Opcode
from ..ddg.transform import AnnotatedDdg, trivial_annotation
from ..machine.machine import Machine, ResourceKey
from ..mrt.pool import PoolOverflowError


@dataclass
class AssignmentStats:
    """Bookkeeping from one seed assignment attempt (the optimized phase
    counts these events on the trace instead)."""

    ii: int
    placements: int = 0
    forced_placements: int = 0
    evictions: int = 0
    copies: int = 0
    succeeded: bool = False


# ----------------------------------------------------------------------
# The annotated graph (seed: rebuilt through add_node/add_edge)
# ----------------------------------------------------------------------
def reference_build_annotated(
    ddg: Ddg,
    machine: Machine,
    cluster_of: Dict[int, int],
    plans: Dict[int, CopyPlan],
) -> AnnotatedDdg:
    """Materialize the annotated DDG from assignment results, node by
    node and edge by edge through :meth:`Ddg.add_node` and
    :meth:`Ddg.add_edge` (the seed builder that
    :func:`repro.core.annotate.build_annotated` now derives from the
    input graph instead).

    ``cluster_of`` covers every original node; ``plans`` holds the final
    copy plan of each producer that needs one.  Original node ids are
    preserved in the new graph (they are contiguous from 0 by
    construction), so callers can correlate nodes across the two graphs.
    """
    node_ids = ddg.node_ids
    if node_ids != list(range(len(ddg))):
        raise ValueError("original node ids must be contiguous from 0")

    new = Ddg(name=ddg.name)
    for node in ddg.nodes:
        new_id = new.add_node(node.opcode, name=node.name, latency=node.latency)
        if new_id != node.node_id:  # pragma: no cover - guarded above
            raise RuntimeError("node id mismatch while rebuilding graph")

    cluster_map = dict(cluster_of)
    copy_targets: Dict[int, Tuple[int, ...]] = {}
    copy_value_of: Dict[int, int] = {}
    # For each producer: cluster -> node id holding its value there.
    value_at: Dict[int, Dict[int, int]] = {}

    for producer, plan in plans.items():
        if not plan.specs:
            continue
        home = cluster_of[producer]
        available: Dict[int, int] = {home: producer}
        for hop_index, spec in enumerate(plan.specs):
            copy_id = new.add_node(
                Opcode.COPY,
                name=f"cp{producer}.{hop_index}",
            )
            cluster_map[copy_id] = spec.src_cluster
            copy_targets[copy_id] = spec.targets
            copy_value_of[copy_id] = producer
            source = available.get(spec.src_cluster)
            if source is None:
                raise ValueError(
                    f"copy plan of node {producer} reads cluster "
                    f"{spec.src_cluster} before the value arrives there"
                )
            new.add_edge(source, copy_id, distance=0)
            for target in spec.targets:
                available[target] = copy_id
        value_at[producer] = available

    for edge in ddg.edges:
        src_node = ddg.node(edge.src)
        same_cluster = cluster_of[edge.src] == cluster_of[edge.dst]
        needs_copy = (
            src_node.produces_value
            and edge.src != edge.dst
            and not same_cluster
        )
        if not needs_copy:
            new.add_edge(edge.src, edge.dst, distance=edge.distance)
            continue
        consumer_cluster = cluster_of[edge.dst]
        carrier = value_at.get(edge.src, {}).get(consumer_cluster)
        if carrier is None:
            raise ValueError(
                f"value of node {edge.src} never reaches cluster "
                f"{consumer_cluster} needed by node {edge.dst}"
            )
        new.add_edge(carrier, edge.dst, distance=edge.distance)

    return AnnotatedDdg(
        ddg=new,
        machine=machine,
        cluster_of=cluster_map,
        copy_targets=copy_targets,
        copy_value_of=copy_value_of,
    )


# ----------------------------------------------------------------------
# Resource pools (seed: per-call key-shape scans)
# ----------------------------------------------------------------------
class ReferencePools:
    """The seed assignment-phase resource pools."""

    def __init__(self, machine: Machine, ii: int) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.machine = machine
        self.ii = ii
        self._capacity: Dict[ResourceKey, int] = {
            key: per_cycle * ii
            for key, per_cycle in machine.resource_capacities().items()
        }
        self._used: Dict[ResourceKey, int] = {
            key: 0 for key in self._capacity
        }

    def free(self, key: ResourceKey) -> int:
        return self._capacity[key] - self._used[key]

    def can_reserve(self, keys: Iterable[ResourceKey]) -> bool:
        demand: Dict[ResourceKey, int] = {}
        for key in keys:
            demand[key] = demand.get(key, 0) + 1
        return all(
            self._used[key] + count <= self._capacity[key]
            for key, count in demand.items()
        )

    def reserve(self, keys: Iterable[ResourceKey]) -> None:
        key_list = list(keys)
        if not self.can_reserve(key_list):
            for key in key_list:
                if self._used[key] >= self._capacity[key]:
                    raise PoolOverflowError(key, self._capacity[key])
            demand: Dict[ResourceKey, int] = {}
            for key in key_list:
                demand[key] = demand.get(key, 0) + 1
            for key, count in demand.items():
                if self._used[key] + count > self._capacity[key]:
                    raise PoolOverflowError(key, self._capacity[key])
        for key in key_list:
            self._used[key] += 1

    def release(self, keys: Iterable[ResourceKey]) -> None:
        for key in keys:
            if self._used[key] <= 0:
                raise ValueError(f"releasing unreserved resource {key!r}")
            self._used[key] -= 1

    def checkpoint(self) -> Dict[ResourceKey, int]:
        return dict(self._used)

    def restore(self, snapshot: Dict[ResourceKey, int]) -> None:
        self._used = dict(snapshot)

    def free_issue_slots(self, cluster_index: int) -> int:
        total = 0
        for key in self._capacity:
            if (
                isinstance(key, tuple)
                and len(key) == 3
                and key[0] == "issue"
                and key[1] == cluster_index
            ):
                total += self.free(key)
        return total

    def free_cluster_slots(self, cluster_index: int) -> int:
        total = self.free_issue_slots(cluster_index)
        if not self.machine.is_unified:
            total += self.free(self.machine.read_port_key(cluster_index))
            total += self.free(self.machine.write_port_key(cluster_index))
        return total

    def free_channel_slots_from(self, cluster_index: int) -> int:
        interconnect = self.machine.interconnect
        total = 0
        for key in interconnect.channel_resources():
            if key == "bus":
                total += self.free(key)
            elif isinstance(key, tuple) and key[0] == "link":
                if cluster_index in key[1:]:
                    total += self.free(key)
        return total

    def max_reservable_copies(self, cluster_index: int) -> int:
        if self.machine.is_unified:
            return 0
        read_free = self.free(self.machine.read_port_key(cluster_index))
        return min(read_free, self.free_channel_slots_from(cluster_index))


# ----------------------------------------------------------------------
# Routing state (seed: graph-derived adjacency, unmemoized replanning)
# ----------------------------------------------------------------------
@dataclass
class RoutingSnapshot:
    """Rollback point for :class:`ReferenceRoutingState` (pools
    snapshot separate)."""

    cluster_of: Dict[int, int]
    #: Producer -> plan: a :class:`CopyPlan` in this reference (the type
    #: also admits the optimized phase's :class:`CopyTemplate`).
    plans: Dict[int, Union[CopyTemplate, CopyPlan]]
    #: -1 in this reference's snapshots, which it restores itself.
    total_copies: int = -1


class ReferenceRoutingState:
    """The seed routing state: value adjacency rebuilt from the graph."""

    def __init__(
        self,
        ddg: Ddg,
        machine: Machine,
        pools: ReferencePools,
        share_broadcast: bool = True,
    ) -> None:
        self.ddg = ddg
        self.machine = machine
        self.pools = pools
        self.share_broadcast = share_broadcast
        self.cluster_of: Dict[int, int] = {}
        self._plans: Dict[int, CopyPlan] = {}
        self._value_consumers: Dict[int, List[int]] = {}
        self._value_producers: Dict[int, List[int]] = {}
        for node_id in ddg.node_ids:
            self._value_consumers[node_id] = []
            self._value_producers[node_id] = []
        for edge in ddg.edges:
            if edge.src == edge.dst:
                continue
            if not ddg.node(edge.src).produces_value:
                continue
            if edge.dst not in self._value_consumers[edge.src]:
                self._value_consumers[edge.src].append(edge.dst)
            if edge.src not in self._value_producers[edge.dst]:
                self._value_producers[edge.dst].append(edge.src)

    def value_consumers(self, producer: int) -> List[int]:
        return list(self._value_consumers[producer])

    def unassigned_value_consumers(self, producer: int) -> int:
        return sum(
            1
            for consumer in self._value_consumers[producer]
            if consumer not in self.cluster_of
        )

    def needed_clusters(self, producer: int) -> Set[int]:
        home = self.cluster_of.get(producer)
        if home is None:
            return set()
        return {
            self.cluster_of[c]
            for c in self._value_consumers[producer]
            if c in self.cluster_of and self.cluster_of[c] != home
        }

    def required_copies(self, producer: int) -> int:
        plan = self._plans.get(producer)
        return 0 if plan is None else plan.copy_count

    def total_copies(self) -> int:
        return sum(plan.copy_count for plan in self._plans.values())

    def plans(self) -> Dict[int, CopyPlan]:
        return {p: plan for p, plan in self._plans.items() if plan.specs}

    def affected_producers(self, node_id: int) -> List[int]:
        affected = []
        if self.ddg.node(node_id).produces_value:
            affected.append(node_id)
        for producer in self._value_producers[node_id]:
            if producer not in affected:
                affected.append(producer)
        return affected

    def replan(self, producer: int) -> None:
        old = self._plans.pop(producer, None)
        if old is not None:
            self.pools.release(old.resources)
        if producer not in self.cluster_of:
            return
        plan = plan_copies(
            self.machine,
            producer,
            self.cluster_of[producer],
            self.needed_clusters(producer),
            share_broadcast=self.share_broadcast,
        )
        if not plan.specs:
            return
        self.pools.reserve(plan.resources)
        self._plans[producer] = plan

    def assign_unplanned(self, node_id: int, cluster: int) -> None:
        if node_id in self.cluster_of:
            raise ValueError(f"node {node_id} is already assigned")
        self.cluster_of[node_id] = cluster

    def set_cluster(self, node_id: int, cluster: int) -> None:
        if node_id in self.cluster_of:
            raise ValueError(f"node {node_id} is already assigned")
        self.cluster_of[node_id] = cluster
        for producer in self.affected_producers(node_id):
            self.replan(producer)

    def unassign_unplanned(self, node_id: int) -> None:
        if node_id not in self.cluster_of:
            raise ValueError(f"node {node_id} is not assigned")
        del self.cluster_of[node_id]

    def snapshot(self) -> RoutingSnapshot:
        return RoutingSnapshot(
            cluster_of=dict(self.cluster_of), plans=dict(self._plans)
        )

    def restore(self, snap: RoutingSnapshot) -> None:
        self.cluster_of = dict(snap.cluster_of)
        self._plans = dict(snap.plans)


# ----------------------------------------------------------------------
# Copy-pressure prediction (seed: per-node accessor calls)
# ----------------------------------------------------------------------
def _upper_bound(
    machine: Machine, routing: ReferenceRoutingState, node_id: int
) -> int:
    if not routing.ddg.node(node_id).produces_value:
        return 0
    rc = routing.required_copies(node_id)
    if machine.interconnect.broadcast:
        return max(0, 1 - rc)
    return max(0, machine.n_clusters - rc - 1)


def _predicted_copy_requests(
    machine: Machine,
    routing: ReferenceRoutingState,
    nodes_on_cluster: Set[int],
) -> int:
    total = 0
    for node_id in nodes_on_cluster:
        bound = _upper_bound(machine, routing, node_id)
        if bound == 0:
            continue
        unassigned = routing.unassigned_value_consumers(node_id)
        total += min(bound, unassigned)
    return total


def _prediction_satisfied(
    machine: Machine,
    routing: ReferenceRoutingState,
    pools: ReferencePools,
    cluster_index: int,
    nodes_on_cluster: Set[int],
) -> bool:
    pcr = _predicted_copy_requests(machine, routing, nodes_on_cluster)
    return pcr <= pools.max_reservable_copies(cluster_index)


# ----------------------------------------------------------------------
# The assigner (seed: min()-scan work list, uncached op keys)
# ----------------------------------------------------------------------
class _ReferenceAssigner:
    """Mutable state of one seed assignment attempt at a fixed II."""

    def __init__(
        self,
        ddg: Ddg,
        machine: Machine,
        ii: int,
        config: AssignmentConfig,
        stats: AssignmentStats,
        order: AssignmentOrder,
    ) -> None:
        self.ddg = ddg
        self.machine = machine
        self.ii = ii
        self.config = config
        self.stats = stats
        self.order = order
        self.pools = ReferencePools(machine, ii)
        self.routing = ReferenceRoutingState(
            ddg, machine, self.pools,
            share_broadcast=config.share_broadcast,
        )
        self.unassigned: Set[int] = set(ddg.node_ids)
        self.nodes_on: Dict[int, Set[int]] = {
            c: set() for c in machine.cluster_indices
        }
        self.issue_held: Dict[int, List[ResourceKey]] = {}
        self.previously_on: Dict[int, Set[int]] = {
            n: set() for n in ddg.node_ids
        }
        self.budget = max(config.budget_ratio * len(ddg), len(ddg) + 1)

    def _op_keys(
        self, node_id: int, cluster: int
    ) -> Optional[List[ResourceKey]]:
        try:
            return self.machine.op_resources(
                self.ddg.node(node_id).opcode, cluster
            )
        except ValueError:
            return None

    def _scc_partner_on(self, node_id: int, cluster: int) -> bool:
        scc = self.order.scc_of(node_id)
        if scc is None:
            return False
        return any(
            other != node_id and other in self.nodes_on[cluster]
            for other in scc.nodes
        )

    def _record_history(self, node_id: int, cluster: int) -> None:
        history = self.previously_on[node_id]
        history.add(cluster)
        if len(history) >= self.machine.n_clusters:
            history.clear()
            history.add(cluster)

    def evaluate(self, node_id: int, cluster: int) -> CandidateInfo:
        keys = self._op_keys(node_id, cluster)
        previously_here = cluster in self.previously_on[node_id]
        if keys is None:
            return CandidateInfo(
                cluster=cluster, feasible=False, shares_scc=False,
                prediction_ok=False, new_copies=0, free_resources=0,
                previously_here=previously_here, op_fits=False,
            )
        op_fits = self.pools.can_reserve(keys)
        pools_snap = self.pools.checkpoint()
        routing_snap = self.routing.snapshot()
        copies_before = self.routing.total_copies()
        feasible = False
        prediction_ok = True
        new_copies = 0
        free_resources = 0
        try:
            self.pools.reserve(keys)
            self.routing.set_cluster(node_id, cluster)
            feasible = True
            new_copies = self.routing.total_copies() - copies_before
            if self.config.predict_copies:
                prediction_ok = _prediction_satisfied(
                    self.machine,
                    self.routing,
                    self.pools,
                    cluster,
                    self.nodes_on[cluster] | {node_id},
                )
            free_resources = self.pools.free_cluster_slots(cluster)
        except (PoolOverflowError, CopyRoutingError):
            feasible = False
        finally:
            self.pools.restore(pools_snap)
            self.routing.restore(routing_snap)
        return CandidateInfo(
            cluster=cluster,
            feasible=feasible,
            shares_scc=self._scc_partner_on(node_id, cluster),
            prediction_ok=prediction_ok,
            new_copies=new_copies,
            free_resources=free_resources,
            previously_here=previously_here,
            op_fits=op_fits,
        )

    def count_conflicts(self, node_id: int, cluster: int) -> int:
        if self._op_keys(node_id, cluster) is None:
            return len(self.ddg.node_ids)
        pools_snap = self.pools.checkpoint()
        routing_snap = self.routing.snapshot()
        conflicts = 0
        self.routing.assign_unplanned(node_id, cluster)
        for producer in self.routing.affected_producers(node_id):
            try:
                self.routing.replan(producer)
            except (PoolOverflowError, CopyRoutingError):
                conflicts += 1
        self.pools.restore(pools_snap)
        self.routing.restore(routing_snap)
        return conflicts

    def commit(self, node_id: int, cluster: int) -> None:
        keys = self._op_keys(node_id, cluster)
        assert keys is not None
        self.pools.reserve(keys)
        self.routing.set_cluster(node_id, cluster)
        self.issue_held[node_id] = keys
        self.nodes_on[cluster].add(node_id)
        self.unassigned.discard(node_id)
        self._record_history(node_id, cluster)
        self.stats.placements += 1

    def evict(self, node_id: int, protect: Set[int]) -> bool:
        cluster = self.routing.cluster_of[node_id]
        self.pools.release(self.issue_held.pop(node_id))
        self.nodes_on[cluster].discard(node_id)
        self.routing.unassign_unplanned(node_id)
        self.unassigned.add(node_id)
        self.stats.evictions += 1
        for producer in self.routing.affected_producers(node_id):
            if not self._replan_or_evict(producer, protect):
                return False
        return True

    def _plan_victim(
        self, producer: int, protect: Set[int]
    ) -> Optional[int]:
        home = self.routing.cluster_of.get(producer)
        if home is None:
            return None
        if producer not in protect:
            return producer
        remote_consumers = [
            consumer
            for consumer in self.routing.value_consumers(producer)
            if consumer not in protect
            and self.routing.cluster_of.get(consumer, home) != home
        ]
        if not remote_consumers:
            return None
        return max(remote_consumers, key=self.order.priority_of)

    def _replan_or_evict(self, producer: int, protect: Set[int]) -> bool:
        while True:
            try:
                self.routing.replan(producer)
                return True
            except (PoolOverflowError, CopyRoutingError):
                victim = self._plan_victim(producer, protect)
                if victim is None:
                    return False
                if victim == producer:
                    return self.evict(producer, protect)
                if not self.evict(victim, protect):
                    return False

    def _issue_victim(
        self, node_id: int, cluster: int, keys: List[ResourceKey]
    ) -> Optional[int]:
        pool_key = keys[0]
        candidates = [
            other
            for other in self.nodes_on[cluster]
            if other != node_id and self.issue_held[other][0] == pool_key
        ]
        if not candidates:
            return None
        return max(candidates, key=self.order.priority_of)

    def force_assign(self, node_id: int, cluster: int) -> bool:
        keys = self._op_keys(node_id, cluster)
        if keys is None:
            return False
        protect = {node_id}
        while not self.pools.can_reserve(keys):
            victim = self._issue_victim(node_id, cluster, keys)
            if victim is None:
                return False
            if not self.evict(victim, protect):
                return False
        self.pools.reserve(keys)
        self.issue_held[node_id] = keys
        self.routing.assign_unplanned(node_id, cluster)
        self.nodes_on[cluster].add(node_id)
        self.unassigned.discard(node_id)
        for producer in self.routing.affected_producers(node_id):
            if not self._replan_or_evict(producer, protect):
                return False
        self._record_history(node_id, cluster)
        self.stats.placements += 1
        self.stats.forced_placements += 1
        return True

    def run(self) -> Optional[AnnotatedDdg]:
        while self.unassigned:
            if self.budget <= 0:
                return None
            self.budget -= 1
            node_id = min(self.unassigned, key=self.order.priority_of)
            candidates = [
                self.evaluate(node_id, cluster)
                for cluster in self.machine.cluster_indices
            ]
            chosen = select_best_cluster(
                candidates,
                node_in_scc=self.order.scc_of(node_id) is not None,
                use_heuristic=self.config.use_heuristic,
            )
            if chosen is not None:
                self.commit(node_id, chosen)
                continue
            if not self.config.iterative:
                return None
            with_conflicts = [
                CandidateInfo(
                    cluster=c.cluster,
                    feasible=c.feasible,
                    shares_scc=c.shares_scc,
                    prediction_ok=c.prediction_ok,
                    new_copies=c.new_copies,
                    free_resources=c.free_resources,
                    previously_here=c.previously_here,
                    op_fits=c.op_fits,
                    conflicts=self.count_conflicts(node_id, c.cluster),
                )
                for c in candidates
            ]
            forced = select_failure_cluster(with_conflicts)
            if forced is None or not self.force_assign(node_id, forced):
                return None

        self.stats.copies = self.routing.total_copies()
        self.stats.succeeded = True
        return reference_build_annotated(
            self.ddg,
            self.machine,
            self.routing.cluster_of,
            self.routing.plans(),
        )


def reference_assign_clusters(
    ddg: Ddg,
    machine: Machine,
    ii: int,
    config: AssignmentConfig = HEURISTIC_ITERATIVE,
    stats: Optional[AssignmentStats] = None,
) -> Optional[AnnotatedDdg]:
    """Seed assignment attempt at candidate ``ii``.

    The caller supplies the frozen seed ordering via
    :func:`repro.baselines.reference_pipeline.reference_build_assignment_order`
    (imported lazily here to avoid a module cycle).
    """
    from .reference_pipeline import reference_build_assignment_order

    if len(ddg) == 0:
        raise ValueError("cannot assign an empty graph")
    if stats is None:
        stats = AssignmentStats(ii=ii)
    if machine.is_unified:
        stats.succeeded = True
        return trivial_annotation(ddg, machine)
    order = reference_build_assignment_order(
        ddg, ii, scc_first=config.scc_first
    )
    assigner = _ReferenceAssigner(ddg, machine, ii, config, stats, order)
    return assigner.run()
