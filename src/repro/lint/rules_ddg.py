"""``DDG1xx`` — well-formedness of the input dependence graph.

These rules trust nothing the :class:`~repro.ddg.graph.Ddg` builders
enforce: endpoints, distances, and latencies are all re-checked so a
graph assembled (or mutated) outside the constructor API is caught at
the phase boundary.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ddg.opcodes import latency_of
from ._graph import adjacency, cyclic_components
from .registry import Finding, rule


def _edge_label(graph, edge) -> str:
    return f"edge {edge.src}->{edge.dst}@{edge.distance}"


def _full_cyclic_components(target):
    """Cyclic SCCs of the whole graph, computed once per target.

    Shared by the cycle rules: DDG104 inspects these directly, and any
    zero-distance cycle (DDG103) is necessarily contained in one of
    them, so DDG103 only re-runs SCC inside these (usually tiny, often
    absent) components instead of over the whole graph.
    """
    if "ddg_cyclic" not in target.cache:
        graph = target.graph
        succs = adjacency(
            (edge.src, edge.dst)
            for edge in graph.edges
            if edge.src in graph and edge.dst in graph
        )
        target.cache["ddg_cyclic"] = cyclic_components(
            graph.node_ids, succs
        )
    return target.cache["ddg_cyclic"]


@rule(
    "DDG101", "dangling-edge", "error",
    "an edge endpoint references a node that is not in the graph",
    requires=["graph"], artifact="ddg",
)
def check_dangling_edges(target, config):
    graph = target.graph
    for index, edge in enumerate(graph.edges):
        for endpoint, role in ((edge.src, "source"),
                               (edge.dst, "destination")):
            if endpoint not in graph:
                yield Finding(
                    location=f"edge[{index}]",
                    message=(
                        f"{role} node {endpoint} of "
                        f"{_edge_label(graph, edge)} does not exist"
                    ),
                    hint="edges must be added through Ddg.add_edge",
                )


@rule(
    "DDG102", "duplicate-edge", "warning",
    "the same (src, dst, distance) dependence appears more than once",
    requires=["graph"], artifact="ddg",
)
def check_duplicate_edges(target, config):
    graph = target.graph
    seen: Dict[Tuple[int, int, int], int] = {}
    for edge in graph.edges:
        key = (edge.src, edge.dst, edge.distance)
        seen[key] = seen.get(key, 0) + 1
    for (src, dst, distance), count in seen.items():
        if count > 1:
            yield Finding(
                location=f"edge {src}->{dst}@{distance}",
                message=(
                    f"dependence repeated {count} times; duplicates "
                    f"never tighten the schedule"
                ),
                hint="drop the redundant edges",
            )


@rule(
    "DDG103", "zero-distance-cycle", "error",
    "a dependence cycle with total iteration distance 0 "
    "(a combinational loop no II can satisfy)",
    requires=["graph"], artifact="ddg",
)
def check_zero_distance_cycles(target, config):
    graph = target.graph
    for enclosing in _full_cyclic_components(target):
        scope = set(enclosing)
        succs = adjacency(
            (edge.src, edge.dst)
            for edge in graph.edges
            if edge.distance == 0
            and edge.src in scope and edge.dst in scope
        )
        for component in cyclic_components(enclosing, succs):
            members = sorted(component)
            yield Finding(
                location=f"nodes {members}",
                message=(
                    "cycle of distance-0 dependences: the loop body "
                    "depends on its own same-iteration result"
                ),
                hint="at least one edge on the cycle needs "
                     "distance >= 1",
            )


@rule(
    "DDG104", "zero-latency-recurrence", "warning",
    "a recurrence whose cycle latency sums to 0 contributes nothing "
    "to RecMII and is almost certainly a modelling mistake",
    requires=["graph"], artifact="ddg",
)
def check_zero_latency_recurrences(target, config):
    graph = target.graph
    for component in _full_cyclic_components(target):
        if all(graph.latency(node) == 0 for node in component):
            members = sorted(component)
            yield Finding(
                location=f"nodes {members}",
                message="every operation on this recurrence has "
                        "latency 0, so its RecMII contribution is 0",
                hint="check the latency overrides on these nodes",
            )


@rule(
    "DDG105", "isolated-node", "warning",
    "a node with no dependence edges at all is unreachable from the "
    "rest of the loop body",
    requires=["graph"], artifact="ddg",
)
def check_isolated_nodes(target, config):
    graph = target.graph
    touched = set()
    for edge in graph.edges:
        touched.add(edge.src)
        touched.add(edge.dst)
    for node_id in graph.node_ids:
        if node_id not in touched and len(graph) > 1:
            yield Finding(
                location=f"node {node_id}",
                message=f"{graph.node(node_id)} has no predecessors "
                        f"and no successors",
                hint="dead code, or a missing dependence edge",
            )


@rule(
    "DDG106", "latency-table-mismatch", "info",
    "a node's latency differs from the paper's Table 2 value for its "
    "opcode (overrides are legal for synthetic graphs, but worth "
    "knowing about)",
    requires=["graph"], artifact="ddg",
)
def check_latency_table(target, config):
    graph = target.graph
    for node in graph.nodes:
        expected = latency_of(node.opcode)
        if node.latency != expected:
            yield Finding(
                location=f"node {node.node_id}",
                message=(
                    f"{node} has latency {node.latency}, Table 2 says "
                    f"{expected} for {node.opcode.value}"
                ),
            )


@rule(
    "DDG107", "negative-distance", "error",
    "a dependence distance below 0 is meaningless (values cannot flow "
    "to earlier iterations)",
    requires=["graph"], artifact="ddg",
)
def check_negative_distances(target, config):
    graph = target.graph
    for index, edge in enumerate(graph.edges):
        if edge.distance < 0:
            yield Finding(
                location=f"edge[{index}]",
                message=f"{_edge_label(graph, edge)} has negative "
                        f"distance {edge.distance}",
            )


@rule(
    "DDG108", "negative-latency", "error",
    "a node latency below 0 breaks every timing inequality",
    requires=["graph"], artifact="ddg",
)
def check_negative_latencies(target, config):
    graph = target.graph
    for node in graph.nodes:
        if node.latency < 0:
            yield Finding(
                location=f"node {node.node_id}",
                message=f"{node} has negative latency {node.latency}",
            )
