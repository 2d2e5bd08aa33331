"""DF7xx — dataflow-analysis rules over cyclic kernels.

These rules run the fixed-point analyses of :mod:`repro.lint.dataflow`
against whatever artifacts the target carries: cyclic liveness on the
bare graph, copy reachability before cluster assignment, and the
static register-pressure lower bound against the finished schedule.
Everything is a *proof*, not an observation — when DF704 fires, no
schedule at that II could have avoided it.  Whether the copies the
assignment inserted deliver every value is the certificate checker's
question (CERT600/CERT603), not lint's.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from .dataflow import (
    cached_live_values,
    cluster_reachability,
    pressure_floor,
)
from .registry import Finding, rule


def _node_label(ddg, node_id: int) -> str:
    node = ddg.node(node_id)
    return node.name or f"n{node_id}"


def _live_map(target) -> Dict[int, bool]:
    # target.cache first (tests pre-seed it), then the per-graph memo:
    # liveness is machine-independent, so multi-machine sweeps share it.
    cached = target.cache.get("df_live")
    if cached is None:
        cached = cached_live_values(target.graph)
        target.cache["df_live"] = cached
    return cached


@rule(
    "DF701",
    "dead-value",
    "info",
    "value-producing operation whose result never reaches any effect",
    requires=("graph",),
    artifact="ddg",
)
def check_dead_values(target, config) -> Iterator[Finding]:
    """Backward cyclic liveness: flag transitively dead value chains.

    A value kept alive only by its own recurrence (an accumulator
    nobody stores) is dead too — the analysis follows value edges
    backward from effects, across cross-iteration wraparound, and
    anything unreached is removable without changing the loop.
    """
    ddg = target.graph
    live = _live_map(target)
    for node_id in ddg.view().node_ids:
        if live[node_id]:
            continue
        node = ddg.node(node_id)
        kind = "copy" if node.is_copy else "operation"
        yield Finding(
            location=f"node {node_id}",
            message=(
                f"{kind} {_node_label(ddg, node_id)!r} produces a value "
                f"no store/branch ever (transitively) consumes"
            ),
            hint="dead code: deleting it cannot change the loop's effects",
        )


@rule(
    "DF702",
    "unreachable-consumer",
    "error",
    "value flow no cluster assignment can route on this machine",
    requires=("graph", "machine"),
    artifact="ddg",
)
def check_unreachable_consumers(target, config) -> Iterator[Finding]:
    """Pre-assignment copy-routing feasibility.

    For every value edge, *some* placement of producer and consumer
    must exist whose clusters coincide or are connected by the
    interconnect's transitive closure.  When the FU classes pin the two
    ops to mutually unreachable clusters, assignment is doomed before
    it starts — report it here instead of as a routing failure.
    """
    ddg = target.graph
    machine = target.effective_machine
    if machine.is_unified:
        return
    senders = cluster_reachability(machine)
    everyone = frozenset(machine.cluster_indices)
    if all(senders[c] == everyone for c in machine.cluster_indices):
        return  # fully connected fabric: nothing can be unroutable
    view = ddg.view()
    class_clusters: Dict[object, List[int]] = {}
    feasible: Dict[int, List[int]] = {}
    for node_id in view.node_ids:
        node = ddg.node(node_id)
        if node.is_copy:
            continue
        clusters = class_clusters.get(node.fu_class)
        if clusters is None:
            clusters = class_clusters[node.fu_class] = [
                c for c in machine.cluster_indices
                if machine.cluster(c).issue_capacity(node.fu_class) > 0
            ]
        feasible[node_id] = clusters
    for src, dst, _lat, _dist in view.edge_array:
        if src == dst or not view.produces_value[src]:
            continue
        if src not in feasible or dst not in feasible:
            continue  # copies: routed already, certify's job
        src_clusters = feasible[src]
        if any(
            cu in senders[cv]
            for cv in feasible[dst]
            for cu in src_clusters
        ):
            continue
        yield Finding(
            location=f"edge {src}->{dst}",
            message=(
                f"value of {_node_label(ddg, src)!r} can never reach "
                f"consumer {_node_label(ddg, dst)!r}: every feasible "
                f"cluster pair is disconnected on {machine.name or 'machine'}"
            ),
            hint="add interconnect links or units so producer and "
                 "consumer share a reachable cluster pair",
        )


@rule(
    "DF704",
    "register-pressure",
    "error",
    "static register-pressure floor exceeds a finite register file",
    requires=("schedule",),
    artifact="regalloc",
)
def check_register_pressure(target, config) -> Iterator[Finding]:
    """Per-cluster register-pressure lower bound vs. the machine.

    The bound holds for *every* schedule at this II (longest-path
    minimum lifetimes), so a violation is an infeasibility proof, not
    an allocator critique.  Clusters with ``register_file == 0``
    (unbounded, the paper's model) are exempt.
    """
    schedule = target.schedule
    machine = target.effective_machine
    if all(c.register_file == 0 for c in machine.clusters):
        return
    floors = pressure_floor(schedule.annotated, schedule.ii)
    if floors is None:
        return  # an infeasible II is certify's territory
    for cluster_index, floor in sorted(floors.items()):
        capacity = machine.cluster(cluster_index).register_file
        if capacity and floor > capacity:
            yield Finding(
                location=f"cluster {cluster_index}",
                message=(
                    f"needs at least {floor} registers at II="
                    f"{schedule.ii}, but the file holds {capacity}"
                ),
                hint="no schedule at this II fits; raise the II or "
                     "grow the register file",
            )
