"""``DDG1xx`` — well-formedness of the input dependence graph.

The error rules report the loop validator's findings
(:mod:`repro.ddg.validate`, read from the graph's raw node and edge
lists through the memoized :meth:`Ddg.defects`): the same checks the
compile boundary rejects a loop on, so a graph assembled or mutated
outside the constructors is caught here with every defect listed, where
the compile boundary stops at the first.  The
cycle rules need every edge to land on a node, so they report nothing
until DDG101 is fixed.  The warnings are rules of their own.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ddg.opcodes import latency_of
from ..ddg.view import scc_components
from .registry import Finding, rule


def _error_rule(code: str, name: str, description: str,
                hint: str = "") -> None:
    """Register ``code``'s rule: the graph's validator findings of that
    code, as lint findings."""
    def check(target, config):
        return [
            Finding(location=error.location, message=error.detail,
                    hint=hint)
            for error in target.ddg.defects() if error.code == code
        ]

    rule(code, name, "error", description)(check)


_error_rule(
    "DDG101", "dangling-edge",
    "an edge endpoint references a node that is not in the graph",
    hint="edges must be added through Ddg.add_edge",
)
_error_rule(
    "DDG103", "zero-distance-cycle",
    "a dependence cycle with total iteration distance 0 "
    "(a combinational loop no II can satisfy)",
    hint="at least one edge on the cycle needs distance >= 1",
)
_error_rule(
    "DDG107", "negative-distance",
    "a dependence distance below 0 is meaningless (values cannot flow "
    "to earlier iterations)",
)
_error_rule(
    "DDG108", "negative-latency",
    "a node latency below 0 breaks every timing inequality",
)
_error_rule(
    "DDG109", "input-copy",
    "an input operation is a COPY: copies are inserted by cluster "
    "assignment, so an input one has no unit to run on and no II fits",
)


@rule(
    "DDG102", "duplicate-edge", "warning",
    "the same (src, dst, distance) dependence appears more than once",
)
def check_duplicate_edges(target, config):
    graph = target.ddg
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
    "DDG104", "zero-latency-recurrence", "warning",
    "a recurrence whose cycle latency sums to 0 contributes nothing "
    "to RecMII and is almost certainly a modelling mistake",
)
def check_zero_latency_recurrences(target, config):
    graph = target.ddg
    if any(error.code == "DDG101" for error in graph.defects()):
        return
    for component in scc_components(graph):
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
)
def check_isolated_nodes(target, config):
    graph = target.ddg
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
)
def check_latency_table(target, config):
    graph = target.ddg
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
