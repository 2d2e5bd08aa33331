"""Tiny graph helpers used by the DDG lint rules.

The DDG rules must run on graphs nothing has validated: one assembled
or mutated outside the :class:`~repro.ddg.graph.Ddg` constructors may hold
dangling edges, and the pipeline's compiled views
(:mod:`repro.ddg.view`) fail to build on such a graph.  So the rules
read only the raw node and edge lists, and this module gives them an
iterative SCC / cycle finder over plain adjacency dicts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


def strongly_connected_components(
    nodes: Sequence[int], succs: Dict[int, List[int]]
) -> List[List[int]]:
    """Iterative Tarjan SCCs of an adjacency-dict digraph.

    Returns every component (including singletons) as a list of node
    ids in discovery order.
    """
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = succs.get(node, [])
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def has_self_loop(node: int, succs: Dict[int, List[int]]) -> bool:
    """True when ``node`` has an edge to itself in ``succs``."""
    return node in succs.get(node, [])


def cyclic_components(
    nodes: Sequence[int], succs: Dict[int, List[int]]
) -> List[List[int]]:
    """SCCs that actually contain a cycle (size > 1, or a self-loop)."""
    return [
        component
        for component in strongly_connected_components(nodes, succs)
        if len(component) > 1 or has_self_loop(component[0], succs)
    ]


def adjacency(
    edges: Iterable[Tuple[int, int]]
) -> Dict[int, List[int]]:
    """Successor adjacency dict of an edge list."""
    succs: Dict[int, List[int]] = {}
    for src, dst in edges:
        succs.setdefault(src, []).append(dst)
    return succs
