"""Compiled, immutable views of a :class:`~repro.ddg.graph.Ddg`.

The Figure-5 driver re-runs ordering, assignment, and scheduling at every
candidate II, but the *graph* only changes when the assignment phase
splices copy nodes in.  Everything derivable from the bare topology —
adjacency, per-edge weights, deduplicated neighbor lists, value-flow
fan-out, SCC membership, per-SCC RecMII — is therefore invariant across
the entire II search and worth computing exactly once.

:class:`DdgView` is that compiled artifact.  It is built lazily by
:meth:`Ddg.view` and cached on the graph behind a mutation version
counter: ``add_node``/``add_edge`` bump the version, the next ``view()``
call rebuilds (counted as ``ddg.view_rebuilds`` in the trace layer), and
``copy()`` produces a graph with no view at all.  The view itself must
never be mutated by consumers — every container is a tuple, a frozenset,
or a dict that callers treat as read-only.  The only mutable fields are
the memos (``recmii_exact``, ``recmii_validated``, ``demand``,
``components``, ``partition``) owned by :mod:`repro.ddg.mii` and
:mod:`repro.ddg.scc`; they die with the view on invalidation, which is
exactly the lifetime their keys are valid for.  The view holds only
what those modules, the SMS ordering, the priority metrics, copy
routing and the scheduler read.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..obs.trace import count as obs_count


class DdgView:
    """Read-only compiled form of one version of a DDG.

    Attributes (all keyed by node id where applicable):

    ``edge_array``
        Every edge as ``(src, dst, latency(src), distance)`` in insertion
        order — the exact operand layout the Bellman–Ford style relaxation
        loops in :mod:`repro.ddg.mii` and
        :mod:`repro.scheduling.priority` consume, so the hot loops never
        touch node records.
    ``in_specs`` / ``out_specs``
        Per-node dependence constraints pre-extracted for the scheduler:
        ``in_specs[n]`` holds ``(src, latency(src), distance)`` per
        incoming edge, ``out_specs[n]`` holds ``(dst, distance)`` per
        outgoing edge, both in edge insertion order.
    ``successors`` / ``predecessors``
        Deduplicated neighbor tuples in first-occurrence order (what the
        SMS sweep and SCC computation walk).
    ``value_consumers`` / ``value_producers``
        Register value flow (excluding self-dependences and non-value
        edges), deduplicated — the adjacency copy routing replans over.
    """

    __slots__ = (
        "version",
        "node_ids",
        "latency",
        "produces_value",
        "edge_array",
        "in_specs",
        "out_specs",
        "successors",
        "predecessors",
        "value_consumers",
        "value_producers",
        # Memo slots owned by repro.ddg.scc / repro.ddg.mii.
        "components",
        "partition",
        "recmii_exact",
        "recmii_validated",
        "demand",
    )

    def __init__(self, version: int) -> None:
        self.version = version
        self.components: Optional[Tuple[FrozenSet[int], ...]] = None
        self.partition = None
        self.recmii_exact: Dict[FrozenSet[int], int] = {}
        self.recmii_validated: set = set()
        self.demand = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DdgView(version={self.version}, nodes={len(self.node_ids)}, "
            f"edges={len(self.edge_array)})"
        )


def build_view(ddg, version: int) -> DdgView:
    """Compile ``ddg`` (at mutation ``version``) into a :class:`DdgView`."""
    obs_count("ddg.view_rebuilds")
    view = DdgView(version)
    node_ids = tuple(ddg.node_ids)
    view.node_ids = node_ids

    latency: Dict[int, int] = {}
    produces: Dict[int, bool] = {}
    for node in ddg.nodes:
        latency[node.node_id] = node.latency
        produces[node.node_id] = node.produces_value
    view.latency = latency
    view.produces_value = produces

    edge_array = tuple(
        (e.src, e.dst, latency[e.src], e.distance) for e in ddg.edges
    )
    view.edge_array = edge_array

    in_lists: Dict[int, list] = {n: [] for n in node_ids}
    out_lists: Dict[int, list] = {n: [] for n in node_ids}
    value_cons: Dict[int, List[int]] = {n: [] for n in node_ids}
    value_prods: Dict[int, List[int]] = {n: [] for n in node_ids}
    for src, dst, src_latency, distance in edge_array:
        out_lists[src].append((dst, distance))
        in_lists[dst].append((src, src_latency, distance))
        if src != dst and produces[src]:
            value_cons[src].append(dst)
            value_prods[dst].append(src)

    view.in_specs = {n: tuple(in_lists[n]) for n in node_ids}
    view.out_specs = {n: tuple(out_lists[n]) for n in node_ids}
    view.successors = {
        n: tuple(dict.fromkeys(dst for dst, _ in out_lists[n]))
        for n in node_ids
    }
    view.predecessors = {
        n: tuple(dict.fromkeys(src for src, _, _ in in_lists[n]))
        for n in node_ids
    }
    view.value_consumers = {
        n: tuple(dict.fromkeys(value_cons[n])) for n in node_ids
    }
    view.value_producers = {
        n: tuple(dict.fromkeys(value_prods[n])) for n in node_ids
    }
    return view


def scc_components(ddg) -> Tuple[FrozenSet[int], ...]:
    """Non-trivial strongly connected components of ``ddg``, memoized.

    Computed by :func:`cyclic_components` over the compiled adjacency
    (no networkx graph construction) and cached on the view for the
    lifetime of the graph version.
    """
    view = ddg.view()
    if view.components is None:
        view.components = cyclic_components(view.node_ids, view.successors)
    return view.components


def cyclic_components(
    nodes: Sequence[int], succs: Mapping[int, Sequence[int]]
) -> Tuple[FrozenSet[int], ...]:
    """The SCCs of the digraph ``succs`` over ``nodes`` that hold a
    cycle (more than one node, or one with a self-loop), by an
    iterative Tarjan walk: no recursion depth limit."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: set = set()
    stack: List[int] = []
    components: List[List[int]] = []

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            descended = False
            children = succs[node]
            for j in range(child_index, len(children)):
                succ = children[j]
                if succ not in index:
                    work.append((node, j + 1))
                    work.append((succ, 0))
                    descended = True
                    break
                if succ in on_stack and index[succ] < low[node]:
                    low[node] = index[succ]
            if descended:
                continue
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            elif work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    return tuple(
        frozenset(component)
        for component in components
        if len(component) > 1 or component[0] in succs[component[0]]
    )
