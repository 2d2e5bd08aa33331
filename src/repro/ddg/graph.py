"""Loop data dependence graphs (DDGs).

A DDG describes one innermost loop body after IF-conversion: nodes are
operations, edges are data dependences.  Every edge carries a *dependence
distance* — the number of loop iterations separating producer and consumer.
Distance 0 is an intra-iteration dependence; distance ``d > 0`` means the
value produced in iteration ``i`` is consumed in iteration ``i + d``
(a loop-carried dependence, i.e. part of a recurrence when it closes a
cycle).

The module keeps the representation deliberately simple and explicit:
integer node ids, dataclass nodes and edges, dict-of-list adjacency.
Parallel edges between the same pair of nodes are allowed (a value may feed
the same consumer both within the iteration and across iterations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import networkx as nx

from .opcodes import Opcode, fu_class_of, latency_of, produces_value
from .validate import find_graph_defects, missing_endpoint, negative_distance


@dataclass(frozen=True)
class Node:
    """One operation in the loop body.

    ``latency`` defaults to the paper's Table 2 value for the opcode but may
    be overridden when constructing synthetic graphs.
    """

    node_id: int
    opcode: Opcode
    latency: int
    name: str = ""

    @property
    def fu_class(self):
        """Function-unit class this node requires on an FS machine."""
        return fu_class_of(self.opcode)

    @property
    def is_copy(self) -> bool:
        """True when this node is an inter-cluster copy operation."""
        return self.opcode is Opcode.COPY

    @property
    def produces_value(self) -> bool:
        """True when this node writes a register result."""
        return produces_value(self.opcode)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or f"n{self.node_id}"
        return f"{label}:{self.opcode.value}"


@dataclass(frozen=True)
class Edge:
    """A data dependence from ``src`` to ``dst`` with iteration distance."""

    src: int
    dst: int
    distance: int = 0

    def __post_init__(self) -> None:
        error = negative_distance(self.src, self.dst, self.distance)
        if error is not None:
            raise error


class Ddg:
    """A mutable loop data dependence graph.

    Nodes are created through :meth:`add_node` and referenced everywhere by
    their integer id.  The graph records predecessor and successor adjacency
    and supports cheap structural queries used by the assignment algorithm
    (SCC membership is computed in :mod:`repro.ddg.scc`, not here).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._nodes: Dict[int, Node] = {}
        self._edges: List[Edge] = []
        self._succs: Dict[int, List[Edge]] = {}
        self._preds: Dict[int, List[Edge]] = {}
        self._next_id = 0
        # Mutation version, compiled-view cache (see repro.ddg.view) and
        # the (version, defects) memo of :meth:`defects`.
        self._version = 0
        self._view = None
        self._defects = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        opcode: Opcode,
        name: str = "",
        latency: Optional[int] = None,
    ) -> int:
        """Add an operation and return its node id."""
        node_id = self._next_id
        self._next_id += 1
        node = Node(
            node_id=node_id,
            opcode=opcode,
            latency=latency_of(opcode) if latency is None else latency,
            name=name,
        )
        self._nodes[node_id] = node
        self._succs[node_id] = []
        self._preds[node_id] = []
        self._version += 1
        return node_id

    def add_edge(self, src: int, dst: int, distance: int = 0) -> Edge:
        """Add a dependence edge; both endpoints must already exist
        (:class:`~repro.ddg.validate.ValidationError` DDG101)."""
        error = missing_endpoint(self._nodes, src, dst, distance)
        if error is not None:
            raise error
        edge = Edge(src=src, dst=dst, distance=distance)
        self._edges.append(edge)
        self._succs[src].append(edge)
        self._preds[dst].append(edge)
        self._version += 1
        return edge

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Compact wire format: name, nodes and edges only.

        The adjacency tables reference every :class:`Edge` three times
        and ``_view`` holds a full compiled :class:`DdgView` after any
        compile, so the default pickle ships several times the graph's
        constructive core — the dominant IPC cost when dispatching
        loops to pool workers.  Receivers rebuild the derived state.
        """
        return {
            "name": self.name,
            "nodes": [
                (node.opcode, node.latency, node.name)
                for node in self._nodes.values()
            ],
            "edges": [
                (edge.src, edge.dst, edge.distance)
                for edge in self._edges
            ],
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Node ids are assigned densely in creation order (there is no
        # removal API), so positions in the node list are the ids.
        # Records are rebuilt through __new__ + __dict__ — the same
        # trusted-channel shortcut default dataclass unpickling takes —
        # because the frozen __init__'s object.__setattr__ calls are
        # measurable at service request rates.
        # Bound locally: these loops run on every service cache miss.
        new_node, new_edge = Node.__new__, Edge.__new__
        nodes: Dict[int, Node] = {}
        for node_id, (opcode, latency, name) in enumerate(
            state["nodes"]
        ):
            node = new_node(Node)
            node.__dict__.update(
                node_id=node_id, opcode=opcode,
                latency=latency, name=name,
            )
            nodes[node_id] = node
        edges: List[Edge] = []
        append = edges.append
        for src, dst, distance in state["edges"]:
            edge = new_edge(Edge)
            edge.__dict__.update(src=src, dst=dst, distance=distance)
            append(edge)
        self._init_records(state["name"], nodes, edges)

    def _init_records(
        self, name: str, nodes: Dict[int, Node], edges: List[Edge]
    ) -> None:
        """The private constructor of a graph from trusted records.

        ``nodes`` maps the dense ids ``0..n-1`` to their records, in id
        order; ``edges`` lists the dependences in insertion order.  The
        records are not checked again: they were checked where they were
        made, by :class:`Edge` and :meth:`add_edge` or, for unpickled
        ones, by ``validate_loop`` (DDG101, DDG107) before attempt 1.
        Frozen records are shared as they are, as :meth:`copy` shares
        them.  Called on a fresh ``Ddg.__new__(Ddg)`` by the kernel
        graph builder (:func:`repro.core.annotate.build_annotated`) and
        by :meth:`__setstate__`.
        """
        self.name = name
        succs: Dict[int, List[Edge]] = {node_id: [] for node_id in nodes}
        preds: Dict[int, List[Edge]] = {node_id: [] for node_id in nodes}
        for edge in edges:
            # A dangling edge stays in the edge list only, as on a
            # sender that appended it there: the validator reports it.
            out_list = succs.get(edge.src)
            in_list = preds.get(edge.dst)
            if out_list is not None and in_list is not None:
                out_list.append(edge)
                in_list.append(edge)
        self._nodes = nodes
        self._edges = edges
        self._succs = succs
        self._preds = preds
        self._next_id = len(nodes)
        # The version an add-by-add build of the same records reaches,
        # so version-keyed consumers see a deterministic value.
        self._version = len(nodes) + len(edges)
        self._view = None
        self._defects = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """Return the node record for ``node_id``."""
        return self._nodes[node_id]

    @property
    def node_ids(self) -> List[int]:
        """All node ids in creation order."""
        return list(self._nodes)

    @property
    def nodes(self) -> List[Node]:
        """All node records in creation order."""
        return list(self._nodes.values())

    @property
    def edges(self) -> List[Edge]:
        """All edges in insertion order."""
        return list(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[int]:
        return iter(self._nodes)

    def out_edges(self, node_id: int) -> List[Edge]:
        """Edges leaving ``node_id``."""
        return list(self._succs[node_id])

    def in_edges(self, node_id: int) -> List[Edge]:
        """Edges entering ``node_id``."""
        return list(self._preds[node_id])

    def successors(self, node_id: int) -> List[int]:
        """Distinct successor node ids of ``node_id`` in first-occurrence
        order (an ordered-set dedup: linear even for high fan-out)."""
        return list(dict.fromkeys(
            edge.dst for edge in self._succs[node_id]
        ))

    def predecessors(self, node_id: int) -> List[int]:
        """Distinct predecessor node ids of ``node_id`` in
        first-occurrence order."""
        return list(dict.fromkeys(
            edge.src for edge in self._preds[node_id]
        ))

    def edge_count(self) -> int:
        """Total number of dependence edges."""
        return len(self._edges)

    def latency(self, node_id: int) -> int:
        """Latency in cycles of node ``node_id``."""
        return self._nodes[node_id].latency

    def total_latency(self) -> int:
        """Sum of all node latencies (used for II search upper bounds)."""
        return sum(n.latency for n in self._nodes.values())

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter: bumped by every ``add_node``/``add_edge``."""
        return self._version

    def view(self):
        """The compiled :class:`~repro.ddg.view.DdgView` of this graph.

        Cached until the next mutation; all derived-structure consumers
        (metrics, SMS ordering, SCCs, RecMII, the scheduler) share one
        instance per graph version.
        """
        view = self._view
        if view is None or view.version != self._version:
            from .view import build_view
            view = self._view = build_view(self, self._version)
        return view

    def defects(self):
        """The :class:`~repro.ddg.validate.ValidationError` of every
        defect of the graph alone (shared, read-only; found once per
        mutation version, like :meth:`view`)."""
        memo = self._defects
        if memo is None or memo[0] != self._version:
            memo = self._defects = (self._version, find_graph_defects(self))
        return memo[1]

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export as a :class:`networkx.MultiDiGraph`.

        Edge attributes: ``distance`` and ``latency`` (of the source node),
        matching the conventional formulation where an edge constrains
        ``start(dst) >= start(src) + latency(src) - II * distance``.
        """
        graph = nx.MultiDiGraph(name=self.name)
        for node in self._nodes.values():
            graph.add_node(node.node_id, opcode=node.opcode, latency=node.latency)
        for edge in self._edges:
            graph.add_edge(
                edge.src,
                edge.dst,
                distance=edge.distance,
                latency=self._nodes[edge.src].latency,
            )
        return graph

    def copy(self, name: Optional[str] = None) -> "Ddg":
        """Return an independent deep copy of this graph."""
        clone = Ddg(name=self.name if name is None else name)
        clone._next_id = self._next_id
        for node_id, node in self._nodes.items():
            clone._nodes[node_id] = node
            clone._succs[node_id] = []
            clone._preds[node_id] = []
        for edge in self._edges:
            clone._edges.append(edge)
            clone._succs[edge.src].append(edge)
            clone._preds[edge.dst].append(edge)
        return clone

    def op_histogram(self) -> Dict[Opcode, int]:
        """Count of nodes per opcode."""
        histogram: Dict[Opcode, int] = {}
        for node in self._nodes.values():
            histogram[node.opcode] = histogram.get(node.opcode, 0) + 1
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Ddg(name={self.name!r}, nodes={len(self._nodes)}, "
            f"edges={len(self._edges)})"
        )


def build_ddg(
    ops: Iterable[Tuple[str, Opcode]],
    deps: Iterable[Tuple[str, str, int]],
    name: str = "",
) -> Ddg:
    """Convenience constructor from symbolic names.

    ``ops`` is an iterable of ``(name, opcode)`` pairs and ``deps`` an
    iterable of ``(src_name, dst_name, distance)`` triples.  Returns the
    constructed :class:`Ddg`.

    >>> g = build_ddg([("a", Opcode.LOAD), ("b", Opcode.ALU)],
    ...               [("a", "b", 0)])
    >>> len(g), g.edge_count()
    (2, 1)
    """
    graph = Ddg(name=name)
    ids: Dict[str, int] = {}
    for op_name, opcode in ops:
        if op_name in ids:
            raise ValueError(f"duplicate operation name {op_name!r}")
        ids[op_name] = graph.add_node(opcode, name=op_name)
    for src_name, dst_name, distance in deps:
        graph.add_edge(ids[src_name], ids[dst_name], distance=distance)
    return graph
