"""The retained slow-reference pipeline for differential testing.

This module freezes the pre-optimization implementations of every stage
the hot-path overhaul touched — monolithic whole-graph RecMII,
networkx-based SCC discovery, per-edge-object priority relaxation, the
list-scan SMS ordering, the ``min()``-scan modulo scheduler, and the
dict-rebuilding reservation table — exactly as they stood before the
compiled-DDG-view / memoized-RecMII / heap-scheduler / counter-MRT
changes.

It exists so the optimized pipeline can be proven **bit-identical** (same
II, same copy counts, same start-cycle maps) against a known-good
baseline, both in the tier-1 differential test
(``tests/integration/test_differential_reference.py``) and in
``benchmarks/test_hotpath.py`` which times the two paths against each
other.  Future performance PRs should keep diffing against this module.

Nothing here is exported for production use; the only intended consumers
are tests and benchmarks.  The cluster *assignment* phase is shared with
the optimized pipeline (its ordering inputs are differentially checked
via :func:`reference_assignment_order`), so :func:`reference_compile_loop`
exercises: shared assignment -> reference scheduler on reference order
with the reference MRT, gated by reference RecMII.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import networkx as nx

from ..core.ordering import AssignmentOrder
from ..core.variants import HEURISTIC_ITERATIVE, AssignmentConfig
from ..ddg.graph import Ddg
from ..ddg.mii import res_mii
from ..ddg.scc import Scc, SccPartition
from ..ddg.transform import AnnotatedDdg
from ..machine.machine import Machine, ResourceKey
from ..scheduling.priority import (
    PriorityDivergenceError,
    PriorityMetrics,
)
from ..scheduling.schedule import Schedule
from ..scheduling.swing import BOTTOM_UP, TOP_DOWN, ordering_sets
from .. import scheduling

OpId = Hashable


# ----------------------------------------------------------------------
# RecMII / MII (seed: one Bellman–Ford binary search over the whole graph)
# ----------------------------------------------------------------------
def _positive_cycle_exists(
    nodes: List[int],
    edges: List[Tuple[int, int, int, int]],
    candidate_ii: int,
) -> bool:
    dist = {node: 0 for node in nodes}
    for _ in range(len(nodes)):
        changed = False
        for src, dst, latency, distance in edges:
            weight = latency - candidate_ii * distance
            if dist[src] + weight > dist[dst]:
                dist[dst] = dist[src] + weight
                changed = True
        if not changed:
            return False
    return True


def _cycle_exists(nodes: List[int], arcs: List[Tuple[int, int]]) -> bool:
    succs: Dict[int, List[int]] = {node: [] for node in nodes}
    for src, dst in arcs:
        succs[src].append(dst)
    WHITE, GRAY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in nodes}
    for start in nodes:
        if colour[start] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(start, 0)]
        colour[start] = GRAY
        while stack:
            node, next_index = stack[-1]
            if next_index < len(succs[node]):
                stack[-1] = (node, next_index + 1)
                succ = succs[node][next_index]
                if colour[succ] == GRAY:
                    return True
                if colour[succ] == WHITE:
                    colour[succ] = GRAY
                    stack.append((succ, 0))
            else:
                colour[node] = BLACK
                stack.pop()
    return False


def _subgraph_edges(
    ddg: Ddg, nodes: Set[int]
) -> List[Tuple[int, int, int, int]]:
    node_set = set(nodes)
    edges = []
    for edge in ddg.edges:
        if edge.src in node_set and edge.dst in node_set:
            edges.append(
                (edge.src, edge.dst, ddg.latency(edge.src), edge.distance)
            )
    return edges


def reference_rec_mii_of_subgraph(ddg: Ddg, nodes: Iterable[int]) -> int:
    """Seed RecMII of one node subset: uncached binary search."""
    node_list = list(nodes)
    edges = _subgraph_edges(ddg, set(node_list))
    if not edges:
        return 0
    upper = max(sum(ddg.latency(n) for n in node_list), 1)
    if _positive_cycle_exists(node_list, edges, upper):
        raise ValueError(
            "dependence cycle with zero total distance: graph is unschedulable"
        )
    if _cycle_exists(
        node_list,
        [(src, dst) for src, dst, latency, distance in edges
         if latency == 0 and distance == 0],
    ):
        raise ValueError(
            "dependence cycle with zero total distance: graph is unschedulable"
        )
    low, high = 0, upper
    if not _positive_cycle_exists(node_list, edges, 0):
        return 0
    while high - low > 1:
        mid = (low + high) // 2
        if _positive_cycle_exists(node_list, edges, mid):
            low = mid
        else:
            high = mid
    return high


def reference_rec_mii(ddg: Ddg) -> int:
    """Seed whole-graph RecMII: one monolithic search, no SCC split."""
    return reference_rec_mii_of_subgraph(ddg, ddg.node_ids)


def reference_mii(ddg: Ddg, machine) -> int:
    """Seed ``max(RecMII, ResMII)`` (ResMII was not touched)."""
    return max(reference_rec_mii(ddg), res_mii(ddg, machine), 1)


# ----------------------------------------------------------------------
# SCCs (seed: networkx strongly_connected_components)
# ----------------------------------------------------------------------
def reference_find_sccs(ddg: Ddg) -> SccPartition:
    """Seed SCC partition: networkx components, uncached RecMII scores."""
    graph = ddg.to_networkx()
    raw_components = []
    for component in nx.strongly_connected_components(graph):
        nodes = frozenset(component)
        if len(nodes) > 1:
            raw_components.append(nodes)
        else:
            (only,) = nodes
            if any(edge.dst == only for edge in ddg.out_edges(only)):
                raw_components.append(nodes)

    scored = []
    for nodes in raw_components:
        rec_mii = reference_rec_mii_of_subgraph(ddg, nodes)
        scored.append((rec_mii, nodes))
    scored.sort(key=lambda item: (-item[0], -len(item[1]), min(item[1])))

    sccs = [
        Scc(index=i, nodes=nodes, rec_mii=rec_mii)
        for i, (rec_mii, nodes) in enumerate(scored)
    ]
    membership = {
        node_id: scc.index for scc in sccs for node_id in scc.nodes
    }
    return SccPartition(sccs=sccs, membership=membership)


# ----------------------------------------------------------------------
# Priority metrics (seed: per-edge-object relaxation)
# ----------------------------------------------------------------------
def _relax_forward(ddg: Ddg, ii: int) -> Dict[int, int]:
    asap = {node_id: 0 for node_id in ddg.node_ids}
    for _ in range(len(asap) + 1):
        changed = False
        for edge in ddg.edges:
            weight = ddg.latency(edge.src) - ii * edge.distance
            candidate = asap[edge.src] + weight
            if candidate > asap[edge.dst]:
                asap[edge.dst] = candidate
                changed = True
        if not changed:
            return asap
    raise PriorityDivergenceError(
        f"ASAP relaxation diverges at II={ii}: II is below RecMII"
    )


def _relax_backward(ddg: Ddg, ii: int) -> Dict[int, int]:
    height = {node_id: ddg.latency(node_id) for node_id in ddg.node_ids}
    for _ in range(len(height) + 1):
        changed = False
        for edge in ddg.edges:
            weight = ddg.latency(edge.src) - ii * edge.distance
            candidate = height[edge.dst] + weight
            if candidate > height[edge.src]:
                height[edge.src] = candidate
                changed = True
        if not changed:
            return height
    raise PriorityDivergenceError(
        f"height relaxation diverges at II={ii}: II is below RecMII"
    )


def reference_compute_metrics(ddg: Ddg, ii: int) -> PriorityMetrics:
    """Seed ASAP/ALAP/height metrics."""
    if len(ddg) == 0:
        return PriorityMetrics(ii=ii, asap={}, alap={}, height={},
                               critical_path=0)
    asap = _relax_forward(ddg, ii)
    height = _relax_backward(ddg, ii)
    critical_path = max(
        asap[node_id] + ddg.latency(node_id) for node_id in ddg.node_ids
    )
    alap = {
        node_id: critical_path - height[node_id] for node_id in ddg.node_ids
    }
    return PriorityMetrics(
        ii=ii,
        asap=asap,
        alap=alap,
        height=height,
        critical_path=critical_path,
    )


# ----------------------------------------------------------------------
# SMS ordering (seed: Ddg accessor walks)
# ----------------------------------------------------------------------
def _pick(candidates, primary, metrics):
    return min(
        candidates,
        key=lambda n: (-primary[n], metrics.mobility(n), n),
    )


def reference_swing_order(ddg, sets, metrics) -> List[int]:
    """Seed SMS sweep using the graph's accessor methods directly."""
    order: List[int] = []
    ordered: Set[int] = set()

    for node_set in sets:
        pending = set(node_set) - ordered
        if not pending:
            continue
        ready_after_preds = {
            n for n in pending
            if any(p in ordered for p in ddg.predecessors(n))
        }
        ready_before_succs = {
            n for n in pending
            if any(s in ordered for s in ddg.successors(n))
        }
        if ready_after_preds:
            frontier, direction = ready_after_preds, TOP_DOWN
        elif ready_before_succs:
            frontier, direction = ready_before_succs, BOTTOM_UP
        else:
            seed = _pick(pending, metrics.height, metrics)
            frontier, direction = {seed}, TOP_DOWN

        while pending:
            while frontier:
                if direction == TOP_DOWN:
                    node = _pick(frontier, metrics.height, metrics)
                else:
                    node = _pick(frontier, metrics.asap, metrics)
                order.append(node)
                ordered.add(node)
                pending.discard(node)
                frontier.discard(node)
                if direction == TOP_DOWN:
                    grown = ddg.successors(node)
                else:
                    grown = ddg.predecessors(node)
                frontier.update(n for n in grown if n in pending)
            if direction == TOP_DOWN:
                direction = BOTTOM_UP
                frontier = {
                    n for n in pending
                    if any(s in ordered for s in ddg.successors(n))
                }
            else:
                direction = TOP_DOWN
                frontier = {
                    n for n in pending
                    if any(p in ordered for p in ddg.predecessors(n))
                }
            if not frontier and pending:
                seed = _pick(pending, metrics.height, metrics)
                frontier, direction = {seed}, TOP_DOWN
    return order


def reference_assignment_order(ddg: Ddg, ii: int) -> List[int]:
    """Seed Section 4.1 ordering: SCC sets by RecMII, SMS within."""
    partition = reference_find_sccs(ddg)
    metrics = reference_compute_metrics(ddg, max(ii, 1))
    return reference_swing_order(ddg, ordering_sets(ddg, partition), metrics)


def reference_build_assignment_order(
    ddg: Ddg, ii: int, scc_first: bool = True
) -> AssignmentOrder:
    """Seed assignment work list with its SCC structure (seed ordering)."""
    metrics = reference_compute_metrics(ddg, max(ii, 1))
    if scc_first:
        partition = reference_find_sccs(ddg)
        sets = ordering_sets(ddg, partition)
    else:
        partition = SccPartition(sccs=[], membership={})
        sets = [set(ddg.node_ids)]
    order = reference_swing_order(ddg, sets, metrics)
    if len(order) != len(ddg):
        raise RuntimeError(
            f"ordering covered {len(order)} of {len(ddg)} nodes"
        )
    rank = {node_id: index for index, node_id in enumerate(order)}
    return AssignmentOrder(order=order, rank=rank, partition=partition)


# ----------------------------------------------------------------------
# Reservation table (seed: holder lists only, dict-rebuilding available())
# ----------------------------------------------------------------------
class ReferenceMrt:
    """The seed modulo reservation table, list-scans and all."""

    def __init__(self, machine: Machine, ii: int) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.machine = machine
        self.ii = ii
        self._capacity: Dict[ResourceKey, int] = machine.resource_capacities()
        self._slots: Dict[Tuple[ResourceKey, int], List[OpId]] = {}
        self._held: Dict[OpId, List[Tuple[ResourceKey, int]]] = {}

    def row(self, cycle: int) -> int:
        return cycle % self.ii

    def _occupancy(self, key: ResourceKey, row: int) -> List[OpId]:
        return self._slots.get((key, row), [])

    def available(self, keys: Iterable[ResourceKey], cycle: int) -> bool:
        row = self.row(cycle)
        demand: Dict[ResourceKey, int] = {}
        for key in keys:
            demand[key] = demand.get(key, 0) + 1
        for key, count in demand.items():
            capacity = self._capacity.get(key)
            if capacity is None:
                raise KeyError(f"unknown resource key {key!r}")
            if len(self._occupancy(key, row)) + count > capacity:
                return False
        return True

    def conflicting_ops(
        self, keys: Iterable[ResourceKey], cycle: int
    ) -> Set[OpId]:
        row = self.row(cycle)
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
        if op_id in self._held:
            raise ValueError(f"operation {op_id!r} is already placed")
        key_list = list(keys)
        if not self.available(key_list, cycle):
            raise RuntimeError(
                f"resources for {op_id!r} unavailable at cycle {cycle}"
            )
        row = self.row(cycle)
        held = []
        for key in key_list:
            self._slots.setdefault((key, row), []).append(op_id)
            held.append((key, row))
        self._held[op_id] = held

    def remove(self, op_id: OpId) -> None:
        held = self._held.pop(op_id, None)
        if held is None:
            raise ValueError(f"operation {op_id!r} is not placed")
        for key, row in held:
            self._slots[(key, row)].remove(op_id)


# ----------------------------------------------------------------------
# Modulo scheduler (seed: min()-scan work list, per-probe available())
# ----------------------------------------------------------------------
def reference_modulo_schedule(
    annotated: AnnotatedDdg,
    ii: int,
    budget_ratio: int = scheduling.DEFAULT_BUDGET_RATIO,
) -> Optional[Schedule]:
    """Seed iterative modulo scheduling attempt at one II."""
    ddg = annotated.ddg
    if len(ddg) == 0:
        raise ValueError("cannot schedule an empty graph")
    if reference_rec_mii(ddg) > ii:
        return None
    order = reference_assignment_order(ddg, ii)
    rank = {node_id: index for index, node_id in enumerate(order)}
    resources = {
        node_id: annotated.resources_of(node_id) for node_id in ddg.node_ids
    }
    metrics = reference_compute_metrics(ddg, ii)

    mrt = ReferenceMrt(annotated.machine, ii)
    start: Dict[int, int] = {}
    previous_start: Dict[int, int] = {}
    unscheduled: Set[int] = set(ddg.node_ids)
    budget = max(budget_ratio * len(ddg), len(ddg) + 1)

    def earliest_start(node_id: int) -> Optional[int]:
        bound: Optional[int] = None
        for edge in ddg.in_edges(node_id):
            if edge.src in start and edge.src != node_id:
                candidate = (
                    start[edge.src]
                    + ddg.latency(edge.src)
                    - ii * edge.distance
                )
                if bound is None or candidate > bound:
                    bound = candidate
        return bound

    def latest_start(node_id: int) -> Optional[int]:
        bound: Optional[int] = None
        for edge in ddg.out_edges(node_id):
            if edge.dst in start and edge.dst != node_id:
                candidate = (
                    start[edge.dst]
                    - ddg.latency(node_id)
                    + ii * edge.distance
                )
                if bound is None or candidate < bound:
                    bound = candidate
        return bound

    def displace(node_id: int) -> None:
        mrt.remove(node_id)
        del start[node_id]
        unscheduled.add(node_id)

    while unscheduled:
        if budget <= 0:
            return None
        budget -= 1
        node_id = min(unscheduled, key=lambda n: rank[n])
        keys = resources[node_id]
        estart = earliest_start(node_id)
        lstart = latest_start(node_id)

        if estart is not None:
            window = range(estart, min(
                estart + ii,
                (lstart + 1) if lstart is not None else estart + ii,
            ))
            forced_time = estart
        elif lstart is not None:
            window = range(lstart, lstart - ii, -1)
            forced_time = lstart
        else:
            base = metrics.asap[node_id]
            window = range(base, base + ii)
            forced_time = base

        chosen: Optional[int] = None
        for t in window:
            if mrt.available(keys, t):
                chosen = t
                break
        if chosen is None:
            chosen = forced_time
            if node_id in previous_start:
                chosen = max(forced_time, previous_start[node_id] + 1)

        for victim in list(mrt.conflicting_ops(keys, chosen)):
            displace(victim)
        mrt.place(node_id, keys, chosen)
        start[node_id] = chosen
        previous_start[node_id] = chosen
        unscheduled.discard(node_id)

        for edge in ddg.out_edges(node_id):
            if edge.dst in start and edge.dst != node_id:
                needed = chosen + ddg.latency(node_id) - ii * edge.distance
                if start[edge.dst] < needed:
                    displace(edge.dst)
        for edge in ddg.in_edges(node_id):
            if edge.src in start and edge.src != node_id:
                limit = chosen - ddg.latency(edge.src) + ii * edge.distance
                if start[edge.src] > limit:
                    displace(edge.src)

    lowest = min(start.values())
    if lowest < 0:
        shift = ((-lowest + ii - 1) // ii) * ii
        start = {node_id: t + shift for node_id, t in start.items()}
    return Schedule(annotated=annotated, ii=ii, start=start)


# ----------------------------------------------------------------------
# Driver (seed Figure 5 loop over the reference phases)
# ----------------------------------------------------------------------
@dataclass
class ReferenceCompilation:
    """Slim outcome record of one reference-path compilation."""

    ii: int
    mii: int
    copy_count: int
    start: Dict[int, int]
    cluster_of: Dict[int, int]


class ReferenceCompilationError(RuntimeError):
    """The reference path found no schedule within the II bound."""


def reference_compile_loop(
    ddg: Ddg,
    machine: Machine,
    config: AssignmentConfig = HEURISTIC_ITERATIVE,
    scheduler_budget_ratio: int = scheduling.DEFAULT_BUDGET_RATIO,
    min_ii: Optional[int] = None,
) -> ReferenceCompilation:
    """Compile one loop through the slow-reference phases (Figure 5).

    Every stage is a frozen seed implementation: MII, ordering, the
    cluster assignment phase
    (:func:`repro.baselines.reference_assignment.reference_assign_clusters`),
    scheduling, and the reservation table.
    """
    from .reference_assignment import (
        AssignmentStats,
        reference_assign_clusters,
    )

    unified = machine.unified_equivalent()
    machine_mii = reference_mii(ddg, unified)
    lower = machine_mii if min_ii is None else max(1, min_ii)
    upper = lower + ddg.total_latency() + 2 * len(ddg) + 16
    for candidate_ii in range(lower, upper + 1):
        stats = AssignmentStats(ii=candidate_ii)
        annotated = reference_assign_clusters(
            ddg, machine, candidate_ii, config, stats=stats
        )
        if annotated is None:
            continue
        schedule = reference_modulo_schedule(
            annotated, candidate_ii, budget_ratio=scheduler_budget_ratio
        )
        if schedule is None:
            continue
        return ReferenceCompilation(
            ii=candidate_ii,
            mii=machine_mii,
            copy_count=annotated.copy_count,
            start=dict(schedule.start),
            cluster_of=dict(annotated.cluster_of),
        )
    raise ReferenceCompilationError(
        f"no schedule for {ddg.name or 'loop'} on {machine.name} "
        f"within II <= {upper}"
    )
