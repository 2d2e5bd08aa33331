"""Pipeline-side certificate emitter.

:func:`emit_certificate` turns one :class:`~repro.core.driver.
CompiledLoop` into a :class:`~repro.certify.witness.Certificate`: it
re-derives each claim *with its witness attached* — the critical cycle
behind RecMII (Bellman–Ford parent tracking at ``II - 1``), the
counting evidence behind ResMII, the copy chains behind the assignment,
the slack/occupancy tables behind the schedule, and the lifetime
intervals behind the register allocation.

Unlike :mod:`repro.certify.check`, this module lives firmly on the
pipeline side and uses the pipeline's own accounting
(``AnnotatedDdg.resources_of``, ``extract_lifetimes``,
``allocate_mve``); the independent checker then recounts everything
from the machine description, so systematic pipeline bugs surface as
witness/recount disagreements.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from ..ddg.graph import Ddg
from ..ddg.mii import rec_mii
from ..ddg.transform import AnnotatedDdg
from ..regalloc.lifetimes import extract_lifetimes
from ..regalloc.mve import allocate_mve
from ..scheduling.schedule import Schedule
from .witness import (
    AssignmentWitness,
    Certificate,
    CopyWitness,
    GraphWitness,
    RecMiiWitness,
    RegallocWitness,
    ResMiiWitness,
    RouteWitness,
    ScheduleWitness,
    SlotWitness,
    resource_key_str,
)

EdgeSpec = Tuple[int, int, int, int]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


#: Per-machine lookup tables (capacity strings, per-opcode resource
#: keys), keyed by identity with a weakref guard so a recycled id can
#: never alias a collected machine.  A corpus run certifies dozens of
#: loops against one machine; without this the same resource tables
#: would be stringified once per loop.
_MACHINE_MEMO: Dict[int, Tuple[object, dict]] = {}


def _memo_for(machine) -> dict:
    key = id(machine)
    entry = _MACHINE_MEMO.get(key)
    if entry is not None and entry[0]() is machine:
        return entry[1]
    if len(_MACHINE_MEMO) >= 16:
        _MACHINE_MEMO.clear()
    memo: dict = {}
    _MACHINE_MEMO[key] = (weakref.ref(machine), memo)
    return memo


def _capacity_strings(machine) -> Dict[str, int]:
    memo = _memo_for(machine)
    caps = memo.get("caps")
    if caps is None:
        caps = {
            resource_key_str(key): capacity
            for key, capacity in machine.resource_capacities().items()
        }
        memo["caps"] = caps
    return caps


def _resource_strings(annotated: AnnotatedDdg) -> Dict[int, List[str]]:
    """Resource-key strings of every node, via the pipeline's own
    accounting (cached per machine for the opcode-derived part)."""
    machine = annotated.machine
    op_memo = _memo_for(machine).setdefault("op", {})
    out: Dict[int, List[str]] = {}
    for node in annotated.ddg.nodes:
        node_id = node.node_id
        cluster = annotated.cluster_of[node_id]
        if node.is_copy:
            key = (cluster, tuple(annotated.copy_targets[node_id]))
            memo = _memo_for(machine).setdefault("copy", {})
        else:
            key = (node.opcode, cluster)
            memo = op_memo
        keys = memo.get(key)
        if keys is None:
            keys = [
                resource_key_str(k)
                for k in annotated.resources_of(node_id)
            ]
            memo[key] = keys
        out[node_id] = keys
    return out


def emit_certificate(compiled) -> Certificate:
    """The certificate of one :class:`CompiledLoop`."""
    return certificate_for(
        compiled.ddg,
        compiled.machine,
        compiled.annotated,
        compiled.schedule,
        compiled.mii,
    )


def certificate_for(
    ddg: Ddg,
    machine,
    annotated: AnnotatedDdg,
    schedule: Schedule,
    mii: int,
) -> Certificate:
    """Build the certificate from the pipeline artifacts directly."""
    memo = _memo_for(machine)
    unified = memo.get("unified")
    if unified is None:
        unified = machine.unified_equivalent()
        memo["unified"] = unified
    res_keys = _resource_strings(annotated)
    capacities = _capacity_strings(machine)
    return Certificate(
        loop=ddg.name or "loop",
        machine=machine.name or "machine",
        ii=schedule.ii,
        mii=mii,
        recmii=_recmii_witness(ddg),
        resmii=_resmii_witness(ddg, unified),
        sched_recmii=_recmii_witness(annotated.ddg),
        sched_resources=_sched_resources_witness(res_keys, capacities),
        graph=_graph_witness(annotated.ddg),
        assignment=_assignment_witness(annotated, res_keys),
        schedule=_schedule_witness(annotated, schedule, res_keys,
                                   capacities),
        regalloc=_regalloc_witness(schedule),
    )


def schedule_certificate(schedule: Schedule) -> Certificate:
    """The witnesses that judge ``schedule`` on its own.

    Graph, assignment and schedule witnesses exactly as
    :func:`certificate_for` emits them, for the schedule's annotated
    graph; the MII claims and the register allocation stay empty, so
    only :data:`~repro.certify.check.SCHEDULE_SECTIONS` may judge the
    result (:func:`repro.scheduling.check_schedule` does).
    """
    annotated = schedule.annotated
    machine = annotated.machine
    res_keys = _resource_strings(annotated)
    return Certificate(
        loop=annotated.ddg.name or "loop",
        machine=machine.name or "machine",
        ii=schedule.ii,
        mii=0,
        recmii=RecMiiWitness(value=0),
        resmii=ResMiiWitness(value=0),
        sched_recmii=RecMiiWitness(value=0),
        sched_resources=ResMiiWitness(value=0),
        graph=_graph_witness(annotated.ddg),
        assignment=_assignment_witness(annotated, res_keys),
        schedule=_schedule_witness(annotated, schedule, res_keys,
                                   _capacity_strings(machine)),
        regalloc=RegallocWitness(unroll=0),
    )


# ----------------------------------------------------------------------
# Recurrence witnesses
# ----------------------------------------------------------------------
def _recmii_witness(ddg: Ddg) -> RecMiiWitness:
    value = rec_mii(ddg)
    if value == 0:
        return RecMiiWitness(value=0)
    edges: List[EdgeSpec] = [
        (edge.src, edge.dst, ddg.node(edge.src).latency, edge.distance)
        for edge in ddg.edges
    ]
    cycle = _critical_cycle(ddg.node_ids, edges, value)
    if cycle is None:  # pragma: no cover - rec_mii guarantees a cycle
        raise RuntimeError(
            f"rec_mii={value} but no critical cycle found in {ddg.name!r}"
        )
    return RecMiiWitness(value=value, cycle=cycle)


def _critical_cycle(
    nodes: List[int], edges: List[EdgeSpec], value: int
) -> Optional[Tuple[EdgeSpec, ...]]:
    """A cycle attaining ``ceil(latency / distance) == value``.

    At ``II = value - 1`` the critical recurrence has strictly positive
    weight, so Bellman–Ford longest-path relaxation keeps improving some
    node after ``len(nodes)`` passes; walking the parent-edge chain
    ``len(nodes)`` steps back from that node must land inside the
    positive cycle, which the final walk extracts.  Because
    ``rec_mii == value`` bounds every cycle's ratio from above, the
    extracted cycle's ratio is exactly ``value``.
    """
    ii = value - 1
    dist = {node: 0 for node in nodes}
    parent: Dict[int, EdgeSpec] = {}
    improved: Optional[int] = None
    for _ in range(len(nodes)):
        improved = None
        for spec in edges:
            src, dst, latency, distance = spec
            candidate = dist[src] + latency - ii * distance
            if candidate > dist[dst]:
                dist[dst] = candidate
                parent[dst] = spec
                improved = dst
    if improved is None:
        return None
    # Follow parent edges until a node repeats; the repeated suffix is
    # the positive cycle (a node still improving after n passes always
    # has one upstream of it).
    visited: Dict[int, int] = {}
    path: List[int] = []
    node = improved
    while node not in visited:
        if node not in parent:  # pragma: no cover - theory says no
            return None
        visited[node] = len(path)
        path.append(node)
        node = parent[node][0]
    cycle = [parent[member] for member in path[visited[node]:]]
    cycle.reverse()
    return tuple(cycle)


# ----------------------------------------------------------------------
# Resource witnesses
# ----------------------------------------------------------------------
def _resmii_witness(ddg: Ddg, unified) -> ResMiiWitness:
    real_ops = [node for node in ddg.nodes if not node.is_copy]
    demand: List[Tuple[str, int, int]] = []
    if real_ops:
        if unified.general_purpose:
            demand.append(
                (
                    "gp",
                    len(real_ops),
                    unified.issue_capacity(real_ops[0].fu_class),
                )
            )
        else:
            per_class: Dict[object, int] = {}
            for node in real_ops:
                per_class[node.fu_class] = per_class.get(node.fu_class, 0) + 1
            demand.extend(
                (fu_class.value, uses, unified.issue_capacity(fu_class))
                for fu_class, uses in sorted(
                    per_class.items(), key=lambda item: item[0].value
                )
            )
    # ResMII is exactly the counting bound the demand table encodes
    # (``max(ceil(uses / capacity))``, floor 1) — deriving the value
    # from the table keeps claim and evidence consistent by
    # construction and skips a second pass over the graph.
    value = max(
        [_ceil_div(uses, cap) for _, uses, cap in demand if cap > 0]
        or [1]
    )
    return ResMiiWitness(value=max(value, 1), demand=tuple(demand))


def _sched_resources_witness(
    res_keys: Dict[int, List[str]], capacities: Dict[str, int]
) -> ResMiiWitness:
    uses: Dict[str, int] = {}
    for names in res_keys.values():
        for name in names:
            uses[name] = uses.get(name, 0) + 1
    demand = tuple(
        (name, count, capacities[name])
        for name, count in sorted(uses.items())
    )
    value = max(
        [-(-count // capacity) for _, count, capacity in demand if capacity]
        or [1]
    )
    return ResMiiWitness(value=max(value, 1), demand=demand)


# ----------------------------------------------------------------------
# Graph + assignment witnesses
# ----------------------------------------------------------------------
def _graph_witness(graph: Ddg) -> GraphWitness:
    return GraphWitness(
        nodes=tuple(
            (node.node_id, node.opcode.value, node.latency)
            for node in graph.nodes
        ),
        edges=tuple(
            (edge.src, edge.dst, edge.distance) for edge in graph.edges
        ),
    )


def _assignment_witness(
    annotated: AnnotatedDdg, res_keys: Dict[int, List[str]]
) -> AssignmentWitness:
    copies = tuple(
        CopyWitness(
            copy_id=copy_id,
            value_of=annotated.copy_value_of[copy_id],
            src_cluster=annotated.cluster_of[copy_id],
            targets=tuple(annotated.copy_targets[copy_id]),
            resources=tuple(res_keys[copy_id]),
        )
        for copy_id in annotated.copy_nodes
    )
    return AssignmentWitness(
        cluster_of=tuple(sorted(annotated.cluster_of.items())),
        copies=copies,
        routes=_routes(annotated),
    )


def _routes(annotated: AnnotatedDdg) -> Tuple[RouteWitness, ...]:
    """One route per (producer, consumer) flow a copy chain carries.

    Each copy has exactly one feed edge (:func:`build_annotated`
    invariant), so walking feeds backwards from the carrier recovers the
    hop chain producer-side first.
    """
    graph = annotated.ddg
    routes: List[RouteWitness] = []
    seen = set()
    for edge in graph.edges:
        carrier = edge.src
        if not graph.node(carrier).is_copy or graph.node(edge.dst).is_copy:
            continue
        producer = annotated.copy_value_of[carrier]
        key = (producer, edge.dst)
        if key in seen:
            continue
        seen.add(key)
        chain = [carrier]
        node = carrier
        while True:
            feed = graph.in_edges(node)[0].src
            if not graph.node(feed).is_copy:
                break
            chain.append(feed)
            node = feed
        chain.reverse()
        routes.append(
            RouteWitness(
                producer=producer,
                consumer=edge.dst,
                producer_cluster=annotated.cluster_of[producer],
                consumer_cluster=annotated.cluster_of[edge.dst],
                chain=tuple(chain),
            )
        )
    return tuple(routes)


# ----------------------------------------------------------------------
# Schedule + regalloc witnesses
# ----------------------------------------------------------------------
def _schedule_witness(
    annotated: AnnotatedDdg,
    schedule: Schedule,
    res_keys: Dict[int, List[str]],
    capacities: Dict[str, int],
) -> ScheduleWitness:
    graph = annotated.ddg
    ii = schedule.ii
    start = schedule.start
    latency = {node.node_id: node.latency for node in graph.nodes}
    slack = tuple(
        start[edge.dst]
        + ii * edge.distance
        - start[edge.src]
        - latency[edge.src]
        for edge in graph.edges
    )
    occupancy: Dict[Tuple[str, int], List[int]] = {}
    for node_id, names in res_keys.items():
        row = start[node_id] % ii
        for name in names:
            occupancy.setdefault((name, row), []).append(node_id)
    slots = tuple(
        SlotWitness(
            resource=resource,
            row=row,
            ops=tuple(sorted(ops)),
            capacity=capacities[resource],
        )
        for (resource, row), ops in sorted(occupancy.items())
    )
    return ScheduleWitness(
        ii=ii,
        start=tuple(sorted(start.items())),
        edge_slack=slack,
        slots=slots,
    )


def _regalloc_witness(schedule: Schedule) -> RegallocWitness:
    lifetimes = extract_lifetimes(schedule)
    allocation = allocate_mve(schedule, lifetimes)
    return RegallocWitness(
        unroll=allocation.unroll,
        lifetimes=tuple(sorted(map(tuple, lifetimes))),
        assignments=tuple(sorted(map(tuple, allocation.assignments))),
        registers_per_cluster=tuple(
            sorted(allocation.registers_per_cluster.items())
        ),
    )
