"""Deriving the annotated output graph from a finished assignment.

The assignment phase's product (paper Section 4) is a *new* data flow
graph: every original operation tagged with its cluster, plus explicit
copy nodes wired into the dataflow wherever a value crosses clusters.
Timing semantics of the rewiring: a producer feeds its copy in the same
iteration (distance 0) and the copy inherits the original edge's distance
toward each consumer, so a copy on a recurrence adds exactly its one-cycle
latency to the cycle — the RecMII growth the paper's Observation Two
describes.

Only the entries a copy touches differ from the input graph, so the new
graph is derived from it rather than rebuilt: it shares the input's
frozen node and edge records, and its compiled view, SCCs and RecMII
memo start from the input's (:func:`repro.ddg.view.derive_view`).  The
add-by-add build this replaced is kept, as the frozen reference, in
:mod:`repro.baselines.reference_assignment`.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..ddg.graph import Ddg, Edge, Node
from ..ddg.opcodes import Opcode, latency_of
from ..ddg.transform import AnnotatedDdg
from ..ddg.validate import missing_endpoint
from ..ddg.view import derive_view
from ..machine.machine import Machine
from .copies import CopyPlan


def _new_edge(nodes: Dict[int, Node], src: int, dst: int,
              distance: int) -> Edge:
    """A kernel edge that is not an input edge, checked as
    :meth:`Ddg.add_edge` checks one (DDG101, DDG107)."""
    error = missing_endpoint(nodes, src, dst, distance)
    if error is not None:
        raise error
    return Edge(src=src, dst=dst, distance=distance)


def build_annotated(
    ddg: Ddg,
    machine: Machine,
    cluster_of: Dict[int, int],
    plans: Dict[int, CopyPlan],
) -> AnnotatedDdg:
    """Derive the annotated DDG from assignment results.

    ``cluster_of`` covers every original node; ``plans`` holds the final
    copy plan of each producer that needs one.  Original node ids are
    preserved in the new graph (they are contiguous from 0 by
    construction), so callers can correlate nodes across the two graphs.
    Copies follow in plan order, hops in order; the edges are each
    copy's feed edge in that order, then every input edge in input
    order, rewired to leave from its carrier when it crosses clusters.
    """
    node_ids = ddg.node_ids
    if node_ids != list(range(len(ddg))):
        raise ValueError("original node ids must be contiguous from 0")

    nodes: Dict[int, Node] = dict(enumerate(ddg.nodes))
    edges: List[Edge] = []
    # Nodes whose edges differ from the input's (see derive_view).
    touched: Set[int] = set()
    cluster_map = dict(cluster_of)
    copy_targets: Dict[int, Tuple[int, ...]] = {}
    copy_value_of: Dict[int, int] = {}
    # For each producer: cluster -> node id holding its value there.
    value_at: Dict[int, Dict[int, int]] = {}

    for producer, plan in plans.items():
        if not plan.specs:
            continue
        touched.add(producer)
        home = cluster_of[producer]
        available: Dict[int, int] = {home: producer}
        for hop_index, spec in enumerate(plan.specs):
            copy_id = len(nodes)
            nodes[copy_id] = Node(
                node_id=copy_id,
                opcode=Opcode.COPY,
                latency=latency_of(Opcode.COPY),
                name=f"cp{producer}.{hop_index}",
            )
            touched.add(copy_id)
            cluster_map[copy_id] = spec.src_cluster
            copy_targets[copy_id] = spec.targets
            copy_value_of[copy_id] = producer
            source = available.get(spec.src_cluster)
            if source is None:
                raise ValueError(
                    f"copy plan of node {producer} reads cluster "
                    f"{spec.src_cluster} before the value arrives there"
                )
            edges.append(_new_edge(nodes, source, copy_id, 0))
            for target in spec.targets:
                available[target] = copy_id
        value_at[producer] = available

    produces = ddg.view().produces_value
    for edge in ddg.edges:
        src, dst = edge.src, edge.dst
        if cluster_of[src] == cluster_of[dst] or src == dst or (
                not produces[src]):
            edges.append(edge)
            continue
        consumer_cluster = cluster_of[dst]
        carrier = value_at.get(src, {}).get(consumer_cluster)
        if carrier is None:
            raise ValueError(
                f"value of node {src} never reaches cluster "
                f"{consumer_cluster} needed by node {dst}"
            )
        edges.append(_new_edge(nodes, carrier, dst, edge.distance))
        touched.add(dst)

    kernel = Ddg.__new__(Ddg)
    kernel._init_records(ddg.name, nodes, edges)
    kernel._view = derive_view(ddg, kernel, touched)
    return AnnotatedDdg(
        ddg=kernel,
        machine=machine,
        cluster_of=cluster_map,
        copy_targets=copy_targets,
        copy_value_of=copy_value_of,
    )
