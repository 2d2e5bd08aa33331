"""Copy-pressure prediction: PCR, MRC and UpperBound (paper Section 4.2).

The selection heuristic's line 6 keeps clusters where the *predicted copy
requests* fit in the *room still reservable for copies*:

.. math::

    PCR_C = \\sum_{N_i \\in C} \\min(UpperBound(N_i),
                                     UnassignedSuccessors(N_i))

``UpperBound`` caps how many more copies a producer could ever need given
the worst-case placement of its still-unassigned consumers:

* broadcast buses: ``max(0, 1 - RC(N_i))`` — a broadcast result travels
  at most once,
* otherwise: ``max(0, ClusterCount - RC(N_i) - 1)`` — at most one copy
  per other cluster.

``MRC_C`` (room for additional copies out of cluster ``C``) is computed by
:meth:`repro.mrt.pool.ResourcePools.max_reservable_copies`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..machine.machine import Machine
from .copies import RoutingState


def upper_bound(
    machine: Machine, routing: RoutingState, node_id: int
) -> int:
    """Worst-case additional copies node ``node_id`` could still need."""
    if not routing.produces_value(node_id):
        return 0
    rc = routing.required_copies(node_id)
    if machine.interconnect.broadcast:
        return max(0, 1 - rc)
    return max(0, machine.n_clusters - rc - 1)


def predicted_copy_requests(
    machine: Machine,
    routing: RoutingState,
    nodes_on_cluster: "set[int]",
    tentative: Optional[Dict[int, Tuple[int, int]]] = None,
) -> int:
    """PCR of one cluster given the nodes currently assigned to it.

    ``tentative`` maps nodes to the ``(RC, UnassignedSuccessors)`` that a
    tentative placement, which the routing state has not made, gives
    them.  Each node it names counts on this cluster with those values,
    in place of the routing state's, whether or not it is in
    ``nodes_on_cluster``.

    Inlines :func:`upper_bound` over the routing state's internals, whose
    unassigned-consumer counts are kept current: the selection heuristic
    evaluates this for every candidate cluster of every node, making it
    one of the hottest loops of the assignment phase.
    """
    base = 1 if machine.interconnect.broadcast else machine.n_clusters - 1
    if base <= 0:
        return 0
    plans = routing._plans
    unassigned = routing._unassigned_consumers
    if tentative is None:
        tentative = {}
    total = 0
    for node_id in nodes_on_cluster:
        # A node waiting for no consumer adds nothing; a node that
        # produces no value has none to wait for.
        waiting = unassigned[node_id]
        if waiting and node_id not in tentative:
            plan = plans.get(node_id)
            bound = base if plan is None else base - len(plan.specs)
            if bound > 0:
                total += waiting if waiting < bound else bound
    for rc, waiting in tentative.values():
        bound = base - rc
        if bound > 0:
            total += waiting if waiting < bound else bound
    return total


def prediction_satisfied(
    machine: Machine,
    routing: RoutingState,
    pools,
    cluster_index: int,
    nodes_on_cluster: "set[int]",
    tentative: Optional[Dict[int, Tuple[int, int]]] = None,
) -> bool:
    """The line-6 criterion: ``PCR_C <= MRC_C`` for one cluster, with
    MRC read from ``pools`` (for a tentative placement, the probe's
    scratch copy; ``tentative`` as in :func:`predicted_copy_requests`)."""
    pcr = predicted_copy_requests(
        machine, routing, nodes_on_cluster, tentative
    )
    return pcr <= pools.max_reservable_copies(cluster_index)
