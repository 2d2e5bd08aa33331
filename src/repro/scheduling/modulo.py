"""Iterative modulo scheduling (Rau, MICRO-27 1994).

This is the paper's phase two: a traditional, cluster-oblivious modulo
scheduler.  It sees only an annotated DDG whose nodes each occupy a fixed
set of machine resource pools — clustering shows up purely as which pools
a node needs, exactly as the paper intends ("any traditional modulo
scheduling algorithm, having no knowledge of clustering, can produce a
valid and efficient schedule").

Algorithm (Rau's formulation):

1. Order operations by priority (height-based; we use the SMS order,
   which the paper's Section 5 reports using as well).
2. Repeatedly take the highest-priority unscheduled op; compute its
   earliest start from its *scheduled* predecessors; scan the II-wide
   window for a slot with free resources.
3. If no slot is free, *force* placement (at the earliest start, or just
   past the op's previous placement to guarantee progress) and displace
   every op that conflicts in resources or violates a dependence to the
   newly placed op.
4. A budget of ``DEFAULT_BUDGET_RATIO × n_ops`` placements bounds the
   effort at one II; exhausting it means failure at this II.

Hot-path structure: the next op comes off a rank-keyed binary heap
(displaced ops are pushed back; an op's rank never changes, so the heap
invariant is exact and selection matches a full min-scan bit for bit),
dependence bounds are computed from the compiled DDG view's pre-extracted
edge specs, and resource probes use demand profiles pre-compiled against
the reservation table once per attempt (see
:meth:`repro.mrt.table.ModuloReservationTable.compile_demand`).
Search events are counted on the trace only (``sched.*`` in
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional, Set

from ..ddg.mii import rec_mii_exceeds
from ..ddg.transform import AnnotatedDdg
from ..mrt.table import ModuloReservationTable
from ..obs.trace import count as obs_count, span as obs_span
from .priority import compute_metrics
from .schedule import Schedule
from .swing import assignment_order

#: Placement budget multiplier, read at call time (Rau reports 3–6
#: works well).
DEFAULT_BUDGET_RATIO = 6


def modulo_schedule(
    annotated: AnnotatedDdg,
    ii: int,
) -> Optional[Schedule]:
    """Attempt a modulo schedule of ``annotated`` at initiation interval
    ``ii``; returns None when the placement budget runs out."""
    ddg = annotated.ddg
    if len(ddg) == 0:
        raise ValueError("cannot schedule an empty graph")
    if rec_mii_exceeds(ddg, ii):
        # Copies inserted on a recurrence raised RecMII past this II
        # (the paper's Observation Two): provably unschedulable here.
        obs_count("sched.recmii_rejections")
        return None
    with obs_span("schedule", ii=ii) as sched_span:
        schedule = _modulo_schedule(annotated, ii, ddg)
        sched_span.note(succeeded=schedule is not None)
    return schedule


def _modulo_schedule(
    annotated: AnnotatedDdg,
    ii: int,
    ddg,
) -> Optional[Schedule]:
    """The scheduling loop proper (inside the ``schedule`` span)."""
    view = ddg.view()
    metrics = compute_metrics(ddg, ii)
    order = assignment_order(ddg, metrics)
    rank = {node_id: index for index, node_id in enumerate(order)}
    resources = {
        node_id: annotated.resources_of(node_id) for node_id in view.node_ids
    }
    latency = view.latency
    in_specs = view.in_specs
    out_specs = view.out_specs

    mrt = ModuloReservationTable(annotated.machine, ii)
    demand = {
        node_id: mrt.compile_demand(keys)
        for node_id, keys in resources.items()
    }
    start: Dict[int, int] = {}
    previous_start: Dict[int, int] = {}
    unscheduled: Set[int] = set(view.node_ids)
    budget = max(DEFAULT_BUDGET_RATIO * len(ddg), len(ddg) + 1)
    # Rank-keyed ready heap.  ``order`` lists ranks 0..n-1 ascending, so
    # the initial list is already a valid heap.  Displacement pushes the
    # victim back; membership in ``unscheduled`` filters the (defensive)
    # possibility of stale entries.
    ready = [(rank[node_id], node_id) for node_id in order]

    def earliest_start(node_id: int) -> Optional[int]:
        """Tightest lower bound from *scheduled* predecessors."""
        bound: Optional[int] = None
        for src, src_latency, distance in in_specs[node_id]:
            if src in start and src != node_id:
                candidate = start[src] + src_latency - ii * distance
                if bound is None or candidate > bound:
                    bound = candidate
        return bound

    def latest_start(node_id: int) -> Optional[int]:
        """Tightest upper bound from *scheduled* successors."""
        bound: Optional[int] = None
        own_latency = latency[node_id]
        for dst, distance in out_specs[node_id]:
            if dst in start and dst != node_id:
                candidate = start[dst] - own_latency + ii * distance
                if bound is None or candidate < bound:
                    bound = candidate
        return bound

    def displace(node_id: int) -> None:
        mrt.remove(node_id)
        del start[node_id]
        unscheduled.add(node_id)
        heapq.heappush(ready, (rank[node_id], node_id))
        obs_count("sched.backtracks")

    while unscheduled:
        if budget <= 0:
            obs_count("sched.budget_exhausted")
            return None
        budget -= 1
        while True:
            _, node_id = heapq.heappop(ready)
            obs_count("sched.heap_pops")
            if node_id in unscheduled:
                break
        profile = demand[node_id]
        estart = earliest_start(node_id)
        lstart = latest_start(node_id)

        # Bidirectional window (Swing Modulo Scheduling): scan upward from
        # scheduled predecessors, downward toward scheduled successors,
        # and from ASAP when the node has no scheduled neighbors yet.
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
        probes = 0
        for t in window:
            probes += 1
            if mrt.probe(profile, t):
                chosen = t
                break
        obs_count("sched.slot_probes", probes)
        if chosen is None:
            obs_count("sched.forced_placements")
            chosen = forced_time
            if node_id in previous_start:
                chosen = max(forced_time, previous_start[node_id] + 1)

        # Displace resource conflicts at the chosen row.
        for victim in list(mrt.conflicting_ops(resources[node_id], chosen)):
            displace(victim)
        mrt.place(node_id, resources[node_id], chosen)
        start[node_id] = chosen
        previous_start[node_id] = chosen
        unscheduled.discard(node_id)
        obs_count("sched.placements")

        # Displace scheduled neighbors whose dependence the placement
        # violates (successors too early, predecessors too late — the
        # latter can happen after a forced or downward placement).
        own_latency = latency[node_id]
        for dst, distance in out_specs[node_id]:
            if dst in start and dst != node_id:
                needed = chosen + own_latency - ii * distance
                if start[dst] < needed:
                    displace(dst)
        for src, src_latency, distance in in_specs[node_id]:
            if src in start and src != node_id:
                limit = chosen - src_latency + ii * distance
                if start[src] > limit:
                    displace(src)

    # Normalize to non-negative cycles with a multiple-of-II shift so
    # kernel rows (start mod II) are unchanged.
    lowest = min(start.values())
    if lowest < 0:
        shift = ((-lowest + ii - 1) // ii) * ii
        start = {node_id: t + shift for node_id, t in start.items()}
    return Schedule(annotated=annotated, ii=ii, start=start)

