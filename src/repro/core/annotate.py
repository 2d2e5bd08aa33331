"""Building the annotated output graph from a finished assignment.

The assignment phase's product (paper Section 4) is a *new* data flow
graph: every original operation tagged with its cluster, plus explicit
copy nodes wired into the dataflow wherever a value crosses clusters.
Timing semantics of the rewiring: a producer feeds its copy in the same
iteration (distance 0) and the copy inherits the original edge's distance
toward each consumer, so a copy on a recurrence adds exactly its one-cycle
latency to the cycle — the RecMII growth the paper's Observation Two
describes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ddg.graph import Ddg
from ..ddg.opcodes import Opcode
from ..ddg.transform import AnnotatedDdg
from ..machine.machine import Machine
from .copies import CopyPlan


def build_annotated(
    ddg: Ddg,
    machine: Machine,
    cluster_of: Dict[int, int],
    plans: Dict[int, CopyPlan],
) -> AnnotatedDdg:
    """Materialize the annotated DDG from assignment results.

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
