"""Fixed-point dataflow analysis over cyclic kernel DDGs.

Modulo-scheduled loops are *cyclic* programs: a distance-``d`` edge
connects iteration ``i`` to iteration ``i + d``, and once an initiation
interval II is fixed, crossing it shifts time by ``II * d`` cycles.
Classic dataflow frameworks assume an acyclic CFG with loop headers;
here every strongly connected component of the DDG is a recurrence and
the transfer functions themselves depend on II.  This module provides

* a generic worklist engine (:func:`solve`) that iterates each SCC of
  the dependence graph to a fixed point in condensation topological
  order — forward or backward, may (join) or must (meet) confluence —
  with optional widening so non-Noetherian lattices still terminate;
* the standard lattices the DF rules use (:class:`BoolLattice`,
  :class:`SetLattice`, :class:`LongestPathLattice`);
* concrete analyses built on the engine: cyclic liveness
  (:func:`live_values` / :func:`dead_values`), inter-cluster
  reachability closure (:func:`cluster_reachability`), modulo-II
  longest paths (:func:`longest_paths`), and the static bound
  :func:`pressure_floor` (a per-cluster register lower bound).

The engine consumes the compiled CSR views of :mod:`repro.ddg.view`
(``edge_array`` tuples ``(src, dst, latency(src), distance)``) but keeps
its own SCC machinery (:mod:`repro.lint._graph`): the DF rules are lint
rules, and re-deriving structure independently of the pipeline is the
point.

Soundness of the static bound
-----------------------------
``pressure_floor`` is a *relaxation*: it lower-bounds each value's
lifetime by the longest dependence path to its consumers and ignores
every other constraint a real schedule must satisfy, so it can only
under-approximate the true register demand.  It is cross-checked
against the real pipeline by the differential tests in
``tests/lint/test_dataflow.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..obs.trace import count as obs_count
from ._graph import strongly_connected_components

#: An edge spec as the compiled views carry it.
EdgeSpec = Tuple[int, int, int, int]  # (src, dst, latency(src), distance)

FORWARD = "forward"
BACKWARD = "backward"

#: Longest-path lattice extremes.  ``NEG_INF`` is unreachable (bottom),
#: ``POS_INF`` is the widened top: a positive-weight cycle pumps the
#: path length without bound, i.e. the candidate II is infeasible.
NEG_INF = float("-inf")
POS_INF = float("inf")


# ----------------------------------------------------------------------
# Lattices
# ----------------------------------------------------------------------
class BoolLattice:
    """Two-point lattice: ``False`` (bottom) below ``True`` (top)."""

    bottom = False
    top = True

    @staticmethod
    def join(a: bool, b: bool) -> bool:
        return a or b

    @staticmethod
    def meet(a: bool, b: bool) -> bool:
        return a and b

    @staticmethod
    def widen(old: bool, new: bool) -> bool:
        return True


class SetLattice:
    """Powerset lattice over a fixed universe (may = union joins)."""

    def __init__(self, universe: Iterable) -> None:
        self.bottom: FrozenSet = frozenset()
        self.top: FrozenSet = frozenset(universe)

    @staticmethod
    def join(a: FrozenSet, b: FrozenSet) -> FrozenSet:
        return a | b

    @staticmethod
    def meet(a: FrozenSet, b: FrozenSet) -> FrozenSet:
        return a & b

    def widen(self, old: FrozenSet, new: FrozenSet) -> FrozenSet:
        return self.top


class LongestPathLattice:
    """Max-plus path lengths: ``-inf`` < integers < ``+inf``.

    The integer chain is unbounded, so fixed-point iteration inside an
    SCC needs *widening*: after ``|SCC|`` improvements a node's value
    can only still be rising because a positive-weight cycle feeds it,
    and the honest answer is ``+inf`` (the Bellman–Ford argument).
    """

    bottom = NEG_INF
    top = POS_INF

    @staticmethod
    def join(a, b):
        return a if a >= b else b

    @staticmethod
    def meet(a, b):
        return a if a <= b else b

    @staticmethod
    def widen(old, new):
        return POS_INF


# ----------------------------------------------------------------------
# Problems and results
# ----------------------------------------------------------------------
@dataclass
class DataflowProblem:
    """One analysis: a lattice plus direction, confluence, and transfer.

    ``init(node)`` is the boundary value: the value of a node with no
    incoming flow edges, and (for may problems) a generated value joined
    into every node's confluence.  ``transfer(edge, value)`` pushes a
    value across one dependence edge — the edge spec carries the
    distance, so modulo-II wraparound lives entirely in the transfer
    function (weight ``latency - II * distance`` for path problems;
    identity for reachability-style problems, where a cross-iteration
    edge is an ordinary flow edge once the kernel reaches steady state).

    ``may=True`` joins flow-in values (union/max/or — "along *some*
    path"); ``may=False`` meets them ("along *every* path").  ``widen``
    bounds per-node updates inside an SCC at ``widen_after * |SCC|``
    before jumping to the lattice's top.

    ``condense=False`` skips the Tarjan condensation and runs one
    worklist over the whole graph.  Monotone problems converge either
    way; condensation only tightens the visit order (and the widening
    window), so reachability-style analyses whose transfer is the
    identity — liveness, closure — can skip its cost.
    """

    lattice: object
    direction: str = FORWARD
    may: bool = True
    init: Callable = None
    transfer: Callable = None
    widen: bool = False
    widen_after: int = 1
    condense: bool = True

    def __post_init__(self) -> None:
        if self.direction not in (FORWARD, BACKWARD):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.init is None:
            bottom = self.lattice.bottom
            self.init = lambda node: bottom
        if self.transfer is None:
            self.transfer = lambda edge, value: value


@dataclass
class DataflowResult:
    """Fixed-point values plus convergence statistics.

    ``node_visits`` counts worklist pops (one recompute each) and is
    deterministic for a given graph — the convergence tests pin it.
    ``widened`` holds the nodes forced to the lattice top; for the
    longest-path lattice a non-empty set is a positive-cycle proof.
    """

    values: Dict[int, object] = field(default_factory=dict)
    node_visits: int = 0
    scc_count: int = 0
    widened: Set[int] = field(default_factory=set)

    @property
    def converged(self) -> bool:
        """True when the fixed point was reached without widening."""
        return not self.widened


# ----------------------------------------------------------------------
# The worklist engine
# ----------------------------------------------------------------------
def solve(
    nodes: Sequence[int],
    edges: Sequence[EdgeSpec],
    problem: DataflowProblem,
) -> DataflowResult:
    """Solve ``problem`` to a fixed point over ``(nodes, edges)``.

    The graph is condensed into SCCs (the lint layer's own Tarjan) and
    the components are solved in topological order of the condensation
    — flipped for backward problems — so each SCC sees final values
    from everything upstream and iterates only over its own members.
    Within an SCC a FIFO worklist (seeded in ascending node order)
    recomputes confluence + transfer until nothing changes; monotone
    transfer functions on a finite-height lattice converge, and
    ``problem.widen`` handles the infinite-height ones.
    """
    lattice = problem.lattice
    forward = problem.direction == FORWARD
    # Flow edges: (flow_src, flow_dst, original spec).  Backward
    # problems traverse dependence edges against their direction.
    flow_in: Dict[int, List[Tuple[int, EdgeSpec]]] = {n: [] for n in nodes}
    flow_out: Dict[int, List[int]] = {n: [] for n in nodes}
    for spec in edges:
        src, dst = (spec[0], spec[1]) if forward else (spec[1], spec[0])
        flow_in[dst].append((src, spec))
        flow_out[src].append(dst)

    if problem.condense:
        sccs = strongly_connected_components(list(nodes), flow_out)
        # Tarjan emits components children-first (reverse topological
        # order of the condensation over ``flow_out``), so flipping the
        # list gives the sources-first order the propagation needs.
        sccs = list(reversed(sccs))
    else:
        sccs = [list(nodes)]

    result = DataflowResult(scc_count=len(sccs))
    values = result.values
    may = problem.may
    join = lattice.join if may else lattice.meet
    transfer = problem.transfer
    init = problem.init
    visits = 0

    for component in sccs:
        # Singleton without a self-loop: its fixed point is a single
        # confluence + transfer step (the worklist would pop it exactly
        # once), so skip the queue machinery.  Mostly-acyclic DDGs put
        # nearly every node on this path.
        if len(component) == 1:
            (node,) = component
            if node not in flow_out[node]:
                visits += 1
                incoming = flow_in[node]
                if incoming:
                    acc = None
                    for flow_src, spec in incoming:
                        value = transfer(spec, values[flow_src])
                        acc = value if acc is None else join(acc, value)
                    if may:
                        acc = join(acc, init(node))
                else:
                    acc = init(node)
                values[node] = acc
                continue
        members = sorted(component)
        member_set = frozenset(members)
        for node in members:
            values[node] = init(node)
        limit = max(1, problem.widen_after) * len(members) + 1
        updates = {node: 0 for node in members}
        pending = deque(members)
        queued = set(members)
        while pending:
            node = pending.popleft()
            queued.discard(node)
            visits += 1
            incoming = flow_in[node]
            if incoming:
                acc = None
                for flow_src, spec in incoming:
                    value = transfer(spec, values[flow_src])
                    acc = value if acc is None else join(acc, value)
                if may:
                    acc = join(acc, init(node))
            else:
                acc = init(node)
            if acc == values[node]:
                continue
            updates[node] += 1
            if problem.widen and updates[node] > limit:
                acc = lattice.widen(values[node], acc)
                result.widened.add(node)
            values[node] = acc
            for succ in flow_out[node]:
                if succ in member_set and succ not in queued:
                    pending.append(succ)
                    queued.add(succ)
    result.node_visits = visits
    obs_count("lint.dataflow_solves")
    obs_count("lint.dataflow_node_visits", result.node_visits)
    return result


def solve_ddg(ddg, problem: DataflowProblem) -> DataflowResult:
    """:func:`solve` over a DDG's compiled view."""
    view = ddg.view()
    return solve(view.node_ids, view.edge_array, problem)


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------
def live_values(ddg) -> DataflowResult:
    """Backward may-analysis: which nodes (transitively) feed an effect.

    A node is *live* when it performs an observable effect itself
    (stores, branches — anything that produces no register value) or
    when its value flows, through any chain of value edges, into a live
    consumer.  Cross-iteration uses count: the recurrence edges of an
    SCC keep a value live across the modulo kernel's wraparound.  A
    pure self-dependence does **not** keep a value alive — an
    accumulator nobody reads is still dead code.
    """
    view = ddg.view()
    produces = view.produces_value
    out_specs = view.out_specs
    value_edges = [
        (src, dst, 0, 0)
        for src in view.node_ids
        if produces[src]
        for dst, _distance in out_specs[src]
        if dst != src
    ]
    problem = DataflowProblem(
        lattice=BoolLattice,
        direction=BACKWARD,
        may=True,
        init=lambda node: not produces[node],
        condense=False,  # plain reachability: Tarjan buys nothing
    )
    return solve(view.node_ids, value_edges, problem)


#: id(ddg) -> (weakref to the graph, its liveness map).  Liveness
#: depends on the graph alone, so a multi-machine sweep linting the
#: same loop against every preset pays for the fixed point once.
_LIVE_CACHE: Dict[int, tuple] = {}


def cached_live_values(ddg) -> Dict[int, bool]:
    """The :func:`live_values` map, memoized per graph object."""
    return _object_memo(
        _LIVE_CACHE, ddg, lambda graph: live_values(graph).values
    )


def dead_values(ddg) -> List[int]:
    """Value-producing nodes whose results never reach any effect."""
    live = live_values(ddg).values
    return [n for n in ddg.view().node_ids if not live[n]]


# ----------------------------------------------------------------------
# Per-object memoization
# ----------------------------------------------------------------------
def _object_memo(cache: Dict[int, tuple], obj, compute):
    """Memoize ``compute(obj)`` keyed by object identity.

    Entries hold a weakref alongside the value so a recycled ``id``
    can never serve a stale result; objects that refuse weakrefs are
    computed but stay uncached.  The ``--lint`` gate hits these caches
    once per compiled loop against long-lived machines and graphs.
    """
    import weakref

    key = id(obj)
    hit = cache.get(key)
    if hit is not None and hit[0]() is obj:
        return hit[1]
    value = compute(obj)
    try:
        ref = weakref.ref(obj)
    except TypeError:  # uncachable: still return the fresh value
        return value
    if len(cache) > 64:
        cache.clear()
    cache[key] = (ref, value)
    return value


# ----------------------------------------------------------------------
# Cluster reachability
# ----------------------------------------------------------------------
#: id(machine) -> (weakref to the machine, its reachability closure).
_REACH_CACHE: Dict[int, tuple] = {}


def cluster_reachability(machine) -> Dict[int, FrozenSet[int]]:
    """Transitive inter-cluster closure: ``senders[c]`` can reach ``c``.

    Forward may-analysis over the cluster graph whose arcs are the
    interconnect's one-hop ``reachable`` pairs — a value can ride a
    chain of copies, so multi-hop point-to-point routes count.  Every
    cluster reaches itself.  Memoized per machine object.
    """
    return _object_memo(_REACH_CACHE, machine, _compute_reachability)


def _compute_reachability(machine) -> Dict[int, FrozenSet[int]]:
    clusters = machine.cluster_indices
    hops: List[EdgeSpec] = [
        (a, b, 0, 0)
        for a in clusters
        for b in clusters
        if a != b and machine.interconnect.reachable(a, b)
    ]
    problem = DataflowProblem(
        lattice=SetLattice(clusters),
        direction=FORWARD,
        may=True,
        init=lambda c: frozenset((c,)),
    )
    return solve(clusters, hops, problem).values


# ----------------------------------------------------------------------
# Modulo-II longest paths
# ----------------------------------------------------------------------
def longest_paths(
    nodes: Sequence[int],
    edges: Sequence[EdgeSpec],
    sources: Iterable[int],
    ii: int,
) -> Optional[Dict[int, float]]:
    """Longest dependence paths from ``sources`` at candidate ``ii``.

    Edge weights are ``latency - II * distance`` — the modulo-II
    wraparound of cross-iteration edges.  For any legal schedule at
    this II, ``start[v] - start[u] >= lp(u -> v)``.  Returns ``None``
    when widening fires: a strictly positive cycle is reachable, so no
    schedule exists at ``ii`` (this is the RecMII infeasibility proof).
    Unreachable nodes sit at ``NEG_INF``.
    """
    source_set = frozenset(sources)
    problem = DataflowProblem(
        lattice=LongestPathLattice,
        direction=FORWARD,
        may=True,
        init=lambda node: 0 if node in source_set else NEG_INF,
        transfer=lambda spec, value: (
            NEG_INF if value == NEG_INF
            else value + spec[2] - ii * spec[3]
        ),
        widen=True,
    )
    result = solve(nodes, edges, problem)
    if not result.converged:
        return None
    return result.values


# ----------------------------------------------------------------------
# Register-pressure floor
# ----------------------------------------------------------------------
def min_lifetimes(annotated, ii: int) -> Optional[Dict[Tuple[int, int], int]]:
    """Static minimum lifetime of each ``(producer, cluster)`` register.

    Mirrors :func:`repro.regalloc.lifetimes.extract_lifetimes` with the
    schedule replaced by its dataflow relaxation: a value born at
    ``start[v] + lat(v)`` and last read at ``start[u] + II * d`` lives
    at least ``lp(v->u) + II * d - lat(v)`` cycles, because any legal
    schedule keeps ``start[u] - start[v] >= lp(v->u)``.  Pairs with no
    consumer in the cluster are omitted, exactly as the allocator omits
    them.  Returns ``None`` when ``ii`` is infeasible outright.
    """
    ddg = annotated.ddg
    view = ddg.view()
    cluster_of = annotated.cluster_of
    produced_into: Dict[int, Tuple[int, ...]] = {}
    for node in ddg.nodes:
        if not node.produces_value:
            continue
        if node.is_copy:
            produced_into[node.node_id] = tuple(
                annotated.copy_targets[node.node_id]
            )
        else:
            produced_into[node.node_id] = (cluster_of[node.node_id],)
    floors: Dict[Tuple[int, int], int] = {}
    nodes = view.node_ids
    edges = view.edge_array
    for producer, clusters in produced_into.items():
        lp = longest_paths(nodes, edges, (producer,), ii)
        if lp is None:
            return None
        latency = view.latency[producer]
        for dst, distance in view.out_specs[producer]:
            length = int(lp[dst]) + ii * distance - latency
            key = (producer, cluster_of[dst])
            if key[1] not in clusters:
                continue
            prior = floors.get(key)
            if prior is None or length > prior:
                floors[key] = max(0, length)
    return floors


def pressure_floor(annotated, ii: int) -> Optional[Dict[int, int]]:
    """Per-cluster lower bound on MVE registers at ``ii``.

    Each live value occupies its register file for ``max(1, length)``
    cycles per iteration (a zero-length value still holds its register
    for the producing cycle), and one register supplies II cycles per
    iteration, so cluster ``c`` needs at least
    ``ceil(sum(max(1, L_min)) / II)`` registers — for *every* schedule
    at this II, not just the one the pipeline found.  ``None`` when the
    II is infeasible.
    """
    floors = min_lifetimes(annotated, ii)
    if floors is None:
        return None
    demand: Dict[int, int] = {}
    for (_producer, cluster), length in floors.items():
        demand[cluster] = demand.get(cluster, 0) + max(1, length)
    return {
        cluster: -(-cycles // ii) for cluster, cycles in demand.items()
    }
