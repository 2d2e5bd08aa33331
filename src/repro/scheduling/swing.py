"""Swing Modulo Scheduling node ordering (Llosa et al., PACT'96).

The SMS ordering lists each node, whenever possible, only after *all* of
its predecessors or *all* of its successors are listed.  The paper reuses
this ordering inside the cluster assignment phase (Section 4.1) because it
minimizes the chance of assigning both a node's predecessors and its
successors to clusters before the node itself — the situation that forces
unavoidable copies.

The algorithm works over an ordered list of node *sets* (here: non-trivial
SCCs by decreasing RecMII, then all remaining nodes) and sweeps each set
alternately top-down (after predecessors) and bottom-up (after
successors):

* top-down picks, among ready candidates, the node with the greatest
  height (most critical downstream chain), tie-broken by lowest mobility;
* bottom-up symmetric with depth.

When a set has no ordered neighbors yet, the sweep starts top-down from
the set's highest node (the published algorithm leaves this seed choice
loose; any critical-source seed preserves its guarantees).
"""

from __future__ import annotations

from typing import List, Sequence, Set

from ..ddg.graph import Ddg
from ..ddg.scc import SccPartition, find_sccs
from .priority import PriorityMetrics

TOP_DOWN = "top-down"
BOTTOM_UP = "bottom-up"


def ordering_sets(ddg: Ddg, partition: SccPartition) -> List[Set[int]]:
    """The ordered list of node sets the paper's Section 4.1 prescribes.

    Non-trivial SCCs in decreasing criticality, then one final set with
    every remaining node.  Empty sets are omitted.
    """
    sets: List[Set[int]] = [set(scc.nodes) for scc in partition.sccs]
    rest = {
        node_id for node_id in ddg.node_ids
        if not partition.in_scc(node_id)
    }
    if rest:
        sets.append(rest)
    return sets


def swing_order(
    ddg: Ddg,
    sets: Sequence[Set[int]],
    metrics: PriorityMetrics,
) -> List[int]:
    """Order all nodes of ``ddg`` given priority ``sets`` and metrics.

    A top-down pick takes the greatest height, a bottom-up pick the
    greatest depth (ASAP); ties go to the lowest mobility, then the
    lowest id.  Each node's two keys are built once per call.
    """
    view = ddg.view()
    successors = view.successors
    predecessors = view.predecessors
    height, asap, mobility = metrics.height, metrics.asap, metrics.mobility
    top_down_key = {
        n: (-height[n], mobility(n), n) for n in view.node_ids
    }.__getitem__
    bottom_up_key = {
        n: (-asap[n], mobility(n), n) for n in view.node_ids
    }.__getitem__
    order: List[int] = []
    ordered: Set[int] = set()

    for node_set in sets:
        pending = set(node_set) - ordered
        if not pending:
            continue
        # Seed: nodes of this set adjacent to the already-ordered prefix.
        ready_after_preds = {
            n for n in pending
            if any(p in ordered for p in predecessors[n])
        }
        ready_before_succs = {
            n for n in pending
            if any(s in ordered for s in successors[n])
        }
        if ready_after_preds:
            frontier, direction = ready_after_preds, TOP_DOWN
        elif ready_before_succs:
            frontier, direction = ready_before_succs, BOTTOM_UP
        else:
            seed = min(pending, key=top_down_key)
            frontier, direction = {seed}, TOP_DOWN

        while pending:
            if direction == TOP_DOWN:
                key, grows = top_down_key, successors
            else:
                key, grows = bottom_up_key, predecessors
            while frontier:
                node = min(frontier, key=key)
                order.append(node)
                ordered.add(node)
                pending.discard(node)
                frontier.discard(node)
                frontier.update(n for n in grows[node] if n in pending)
            # Swing: reverse direction, restart from the other frontier.
            if direction == TOP_DOWN:
                direction = BOTTOM_UP
                frontier = {
                    n for n in pending
                    if any(s in ordered for s in successors[n])
                }
            else:
                direction = TOP_DOWN
                frontier = {
                    n for n in pending
                    if any(p in ordered for p in predecessors[n])
                }
            if not frontier and pending:
                # Disconnected remainder of the set: reseed.
                seed = min(pending, key=top_down_key)
                frontier, direction = {seed}, TOP_DOWN
    return order


def assignment_order(ddg: Ddg, metrics: PriorityMetrics) -> List[int]:
    """The paper's full assignment order for one loop, given its
    priority ``metrics`` at the candidate II.

    SCC sets by decreasing RecMII first, remaining nodes last, SMS order
    within each set (Section 4.1).  The assignment phase
    (:mod:`repro.core.ordering`) and the modulo scheduler both order
    through this function.
    """
    return swing_order(ddg, ordering_sets(ddg, find_sccs(ddg)), metrics)
