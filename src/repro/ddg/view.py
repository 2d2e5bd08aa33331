"""Compiled, immutable views of a :class:`~repro.ddg.graph.Ddg`.

The Figure-5 driver re-runs ordering, assignment, and scheduling at every
candidate II on the same input graph.  Everything derivable from the
bare topology — adjacency, per-edge weights, deduplicated neighbor
lists, value-flow fan-out, SCC membership, per-SCC RecMII — is therefore
invariant across the entire II search and worth computing exactly once.

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

Each attempt whose assignment succeeds hands the scheduler a new
kernel graph: the input plus the copies the assignment spliced in.
Only the entries a copy touches differ from the input's, so the
kernel's view is not built but derived from the input's
(:func:`derive_view`): it shares every untouched node's tuples, and its
SCCs and RecMII memo follow from the input's.  A plain compile builds
one view, the input's, whatever its number of attempts.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

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

    view.edge_array = tuple(
        (e.src, e.dst, latency[e.src], e.distance) for e in ddg.edges
    )
    view.in_specs = {}
    view.out_specs = {}
    view.successors = {}
    view.predecessors = {}
    view.value_consumers = {}
    view.value_producers = {}
    _fill_adjacency(view, node_ids)
    return view


def _fill_adjacency(view: DdgView, node_ids: Sequence[int]) -> None:
    """Write the six adjacency entries of each of ``node_ids``, in that
    order, from ``view.edge_array`` into the view's per-node dicts."""
    produces = view.produces_value
    in_lists: Dict[int, list] = {n: [] for n in node_ids}
    out_lists: Dict[int, list] = {n: [] for n in node_ids}
    value_cons: Dict[int, List[int]] = {n: [] for n in node_ids}
    value_prods: Dict[int, List[int]] = {n: [] for n in node_ids}
    for src, dst, src_latency, distance in view.edge_array:
        # Register value flow: no self-dependences, value producers only.
        value = src != dst and produces[src]
        if src in out_lists:
            out_lists[src].append((dst, distance))
            if value:
                value_cons[src].append(dst)
        if dst in in_lists:
            in_lists[dst].append((src, src_latency, distance))
            if value:
                value_prods[dst].append(src)

    in_specs, out_specs = view.in_specs, view.out_specs
    successors, predecessors = view.successors, view.predecessors
    value_consumers = view.value_consumers
    value_producers = view.value_producers
    for n in node_ids:
        ins, outs = in_lists[n], out_lists[n]
        in_specs[n] = tuple(ins)
        out_specs[n] = tuple(outs)
        successors[n] = tuple(dict.fromkeys([dst for dst, _ in outs]))
        predecessors[n] = tuple(dict.fromkeys([src for src, _, _ in ins]))
        value_consumers[n] = tuple(dict.fromkeys(value_cons[n]))
        value_producers[n] = tuple(dict.fromkeys(value_prods[n]))


def derive_view(source, kernel, touched: Iterable[int]) -> DdgView:
    """The view of ``kernel``, derived from the view of ``source``.

    ``kernel`` is ``source`` with copy nodes spliced in (see
    :func:`repro.core.annotate.build_annotated`): the same nodes under
    the same ids, then the copies, each fed by one edge from its
    producer or an earlier hop; the same edges in the same order, some
    rewired to leave from the copy that carries their value.
    ``touched`` holds every node whose edges differ from ``source``'s:
    producers with copies, consumers of rewired edges, and the copies.

    The per-node maps start as copies of ``source``'s, so untouched
    nodes share its tuples, and only the touched entries are recomputed
    from ``kernel``'s edges; keys stay in node-id order.  The SCCs and
    their RecMII memo come from ``source``'s (see below), so Tarjan does
    not run on ``kernel``.  Not counted as ``ddg.view_rebuilds``.
    """
    base = source.view()
    view = DdgView(kernel.version)
    first_copy = len(base.node_ids)
    copies = range(first_copy, len(kernel))
    view.node_ids = base.node_ids + tuple(copies)
    view.latency = dict(base.latency)
    view.produces_value = dict(base.produces_value)
    for copy in copies:
        node = kernel.node(copy)
        view.latency[copy] = node.latency
        view.produces_value[copy] = node.produces_value
    touched = sorted(touched)
    view.edge_array = tuple(
        (e.src, e.dst, view.latency[e.src], e.distance)
        for e in kernel.edges
    ) if touched else base.edge_array
    view.in_specs = dict(base.in_specs)
    view.out_specs = dict(base.out_specs)
    view.successors = dict(base.successors)
    view.predecessors = dict(base.predecessors)
    view.value_consumers = dict(base.value_consumers)
    view.value_producers = dict(base.value_producers)
    _fill_adjacency(view, touched)

    # A copy lies on a cycle exactly when its producer is in a
    # component S and its value reaches, through later hops, a
    # consumer in S; it then joins S.  No other kernel node lies on a
    # cycle, because copies only reroute existing values.  Hops feed
    # later hops only, so one pass in reverse id order decides each.
    components = scc_components(source)
    owner: Dict[int, Optional[FrozenSet[int]]] = {}
    for copy in copies:
        feed = view.predecessors[copy][0]
        owner[copy] = owner[feed] if feed >= first_copy else next(
            (component for component in components if feed in component),
            None,
        )
    on_cycle: set = set()
    joined: Dict[FrozenSet[int], List[int]] = {}
    for copy in reversed(copies):
        component = owner[copy]
        if component is not None and any(
            succ in component or succ in on_cycle
            for succ in view.successors[copy]
        ):
            on_cycle.add(copy)
            joined.setdefault(component, []).append(copy)
    view.components = tuple(
        component | frozenset(joined[component])
        if component in joined else component
        for component in components
    )
    # A component no copy joined has the same edges as in ``source``,
    # so its RecMII and its DDG103 check carry over; one that gained
    # copies is searched afresh by repro.ddg.mii.
    for component in components:
        if component in joined:
            continue
        if component in base.recmii_exact:
            view.recmii_exact[component] = base.recmii_exact[component]
        if component in base.recmii_validated:
            view.recmii_validated.add(component)
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
