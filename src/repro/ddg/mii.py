"""Minimum initiation interval (MII) computation.

``MII = max(RecMII, ResMII)`` (paper Section 3):

* **RecMII** — the recurrence-constrained minimum: the maximum over all
  dependence cycles of ``ceil(sum(latencies) / sum(distances))``.  Every
  cycle lives inside a strongly connected component, so the whole-graph
  RecMII is the max over per-SCC answers; each SCC is resolved by binary
  search over integer candidate IIs, where a candidate ``II`` is feasible
  iff the subgraph with edge weights ``latency(src) - II * distance`` has
  no strictly positive cycle (Bellman–Ford-style longest-path relaxation,
  ``O(V * E)`` per probe).
* **ResMII** — the resource-constrained minimum: for each resource class,
  ``ceil(uses / capacity)``, maximized over classes.  Function units are
  fully pipelined (one issue slot per operation regardless of latency),
  matching the paper's ``ResMII = ops / width`` example.

RecMII is a property of the graph alone and is therefore *memoized* on
the graph's compiled view (:mod:`repro.ddg.view`), keyed by the SCC node
set: each SCC's exact value is searched once per graph version, and the
SCC criticality order, the scheduler's feasibility check
(:func:`rec_mii_exceeds`) and the certificate all read that one answer
(later reads count as ``mii.recmii_cache_hits``).

ResMII needs a machine description, so :func:`res_mii` accepts any object
exposing the small ``issue_capacity`` protocol implemented by
:class:`repro.machine.machine.Machine`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..obs.trace import count as obs_count
from .graph import Ddg
from .opcodes import FuClass
from .validate import unsupported_fu_class, zero_distance_cycles
from .view import scc_components


def _positive_cycle_exists(
    nodes: List[int],
    edges: List[Tuple[int, int, int, int]],
    candidate_ii: int,
) -> bool:
    """True when some cycle has ``sum(latency) - II * sum(distance) > 0``.

    ``edges`` holds ``(src, dst, latency, distance)`` tuples restricted to
    ``nodes``.  Longest-path relaxation from an implicit super-source: any
    relaxation still possible after ``len(nodes)`` passes proves a positive
    cycle.
    """
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


def _subgraph_edges(
    ddg: Ddg, nodes: Iterable[int]
) -> List[Tuple[int, int, int, int]]:
    """Edges of ``ddg`` with both endpoints in ``nodes``, as
    ``(src, dst, latency(src), distance)`` tuples."""
    node_set = set(nodes)
    return [
        spec
        for spec in ddg.view().edge_array
        if spec[0] in node_set and spec[1] in node_set
    ]


def rec_mii_of_subgraph(ddg: Ddg, nodes: Iterable[int]) -> int:
    """RecMII contributed by the cycles inside ``nodes``.

    Returns 0 when the subgraph is acyclic (imposes no recurrence bound).
    Memoized per (graph version, node set).
    """
    view = ddg.view()
    key = frozenset(nodes)
    cached = view.recmii_exact.get(key)
    if cached is not None:
        obs_count("mii.recmii_cache_hits")
        return cached
    node_list = list(nodes)
    edges = _subgraph_edges(ddg, key)
    if not edges:
        view.recmii_exact[key] = 0
        return 0
    if key not in view.recmii_validated:
        # DDG103, the loop validator's check, once per (version, node
        # set): a zero-total-distance cycle is positive at every II when
        # its latency is, and weighs 0 at every II when all its ops have
        # latency 0, so no probe would tell it apart from a satisfiable
        # one.  Without it every cycle has distance >= 1, so with
        # latencies >= 0 the node set's latency sum is a feasible II.
        for error in zero_distance_cycles(key, edges):
            raise error
        view.recmii_validated.add(key)
    if not _positive_cycle_exists(node_list, edges, 0):
        view.recmii_exact[key] = 0
        return 0  # No recurrence-constraining cycle.
    # Invariant: a positive cycle exists at ``low``, none at ``high``.
    low, high = 0, max(sum(view.latency[n] for n in node_list), 1)
    while high - low > 1:
        mid = (low + high) // 2
        if _positive_cycle_exists(node_list, edges, mid):
            low = mid
        else:
            high = mid
    view.recmii_exact[key] = high
    return high


def rec_mii(ddg: Ddg) -> int:
    """RecMII of the whole graph (max over its dependence cycles).

    Computed as the max over the graph's non-trivial SCCs — cycles cannot
    cross SCC boundaries — so each component's (memoized) answer is
    shared with the SCC criticality ordering and the scheduler's
    feasibility checks.
    """
    bound = 0
    for component in scc_components(ddg):
        bound = max(bound, rec_mii_of_subgraph(ddg, component))
    return bound


def rec_mii_exceeds(ddg: Ddg, ii: int) -> bool:
    """True exactly when ``rec_mii(ddg) > ii``.

    The scheduler's feasibility check.  It reads the exact memoized
    RecMII, which its SMS order needs per SCC anyway, so one search
    per graph version serves both.  Malformed graphs (zero-total-distance
    cycles) raise :class:`ValueError` as :func:`rec_mii` does.
    """
    return rec_mii(ddg) > ii


def op_demand(ddg: Ddg) -> Dict[FuClass, int]:
    """Count of function-unit issue slots demanded per FU class,
    memoized on the graph's view (shared: treat it as read-only).

    Copies are excluded: the paper models copies as consuming only
    communication resources, never issue slots.
    """
    view = ddg.view()
    if view.demand is None:
        demand: Dict[FuClass, int] = {}
        for node in ddg.nodes:
            if not node.is_copy:
                fu_class = node.fu_class
                demand[fu_class] = demand.get(fu_class, 0) + 1
        view.demand = demand
    return view.demand


def res_mii(ddg: Ddg, machine) -> int:
    """ResMII of ``ddg`` on ``machine``.

    ``machine`` must expose ``issue_capacity(fu_class) -> int`` returning
    the number of units per cycle able to execute that class (for GP
    machines this is the total width for every class) and a boolean
    attribute ``general_purpose``.  A class the machine has no unit for
    raises the loop validator's MACH202 error.
    """
    demand = op_demand(ddg)
    if not demand:
        return 1
    for fu_class in demand:
        error = unsupported_fu_class(machine, fu_class)
        if error is not None:
            raise error
    if machine.general_purpose:
        total_ops = sum(demand.values())
        width = machine.issue_capacity(FuClass.INTEGER)
        return max(1, -(-total_ops // width))
    return max(
        -(-count // machine.issue_capacity(fu_class))
        for fu_class, count in demand.items()
    )


def mii(ddg: Ddg, machine) -> int:
    """``max(RecMII, ResMII)`` — the modulo scheduling lower bound."""
    return max(rec_mii(ddg), res_mii(ddg, machine), 1)
