"""Certificate schema: the witnesses a compile carries as its proof.

A :class:`Certificate` is pure data — tuples of ints and strings, JSON
round-trippable — describing *why* one compiled loop is correct:

* :class:`RecMiiWitness` — a critical dependence cycle (explicit edge
  list) whose ``ceil(sum latency / sum distance)`` attains the claimed
  recurrence bound;
* :class:`ResMiiWitness` — resource-counting evidence for the
  resource bound (``ceil(uses / capacity)`` per pool);
* :class:`GraphWitness` — the annotated (copy-carrying) graph the
  schedule was built for, so the checker can prove it is a faithful
  extension of the original DDG;
* :class:`AssignmentWitness` — per cross-cluster value flow, the copy
  chain that carries it (:class:`RouteWitness`) plus every copy's
  communication resources (:class:`CopyWitness`);
* :class:`ScheduleWitness` — start cycles, per-edge timing slack, and
  per-(resource, kernel-row) occupancy slots;
* :class:`RegallocWitness` — lifetime intervals and the MVE register
  assignment packed from them.

This module is deliberately import-free (stdlib only): it is shared by
the pipeline-side emitter and by the independent checker, and must not
drag pipeline code into the checker's module graph (see
``docs/CERTIFICATES.md`` for the independence contract).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple


def resource_key_str(key: object) -> str:
    """Canonical string form of a machine resource key.

    Resource keys are hashable tuples/strings whose ``repr`` is already
    deterministic (``('issue', 0, 'gp')``, ``('rd', 1)``, ``'bus'``,
    ``('link', 0, 1)``, ``('issue', 0, FuClass.MEMORY)``); certificates
    store the string form so the schema stays JSON-serializable.
    """
    return str(key)


@dataclass(frozen=True)
class RecMiiWitness:
    """A recurrence bound with the cycle that attains it.

    ``cycle`` holds ``(src, dst, latency, distance)`` edge tuples in
    traversal order (``latency`` is the source node's latency, matching
    the scheduling constraint form); empty when ``value`` is 0 (acyclic
    graph — no recurrence constrains the II).
    """

    value: int
    cycle: Tuple[Tuple[int, int, int, int], ...] = ()

    @property
    def cycle_latency(self) -> int:
        """Total latency around the witness cycle."""
        return sum(edge[2] for edge in self.cycle)

    @property
    def cycle_distance(self) -> int:
        """Total dependence distance around the witness cycle."""
        return sum(edge[3] for edge in self.cycle)


@dataclass(frozen=True)
class ResMiiWitness:
    """A resource bound with its counting evidence.

    ``demand`` holds ``(pool, uses, capacity)`` triples — ``pool`` is a
    function-unit class name for the unified bound or a canonical
    resource-key string for the per-cluster bound; ``value`` must equal
    the max of ``ceil(uses / capacity)`` over the entries (1 when there
    are none).
    """

    value: int
    demand: Tuple[Tuple[str, int, int], ...] = ()


@dataclass(frozen=True)
class GraphWitness:
    """The annotated graph: ``(id, opcode, latency)`` nodes (opcode as
    its string value) and ``(src, dst, distance)`` edges in insertion
    order."""

    nodes: Tuple[Tuple[int, str, int], ...]
    edges: Tuple[Tuple[int, int, int], ...]

    def latency_of(self) -> Dict[int, int]:
        """Node id -> latency map."""
        return {node_id: latency for node_id, _, latency in self.nodes}


@dataclass(frozen=True)
class CopyWitness:
    """One inserted copy: which value it transports, which clusters it
    bridges, and the communication resources it occupies per issue."""

    copy_id: int
    value_of: int
    src_cluster: int
    targets: Tuple[int, ...]
    resources: Tuple[str, ...]


@dataclass(frozen=True)
class RouteWitness:
    """One cross-cluster value flow: producer cluster -> copy chain ->
    consumer cluster.  ``chain`` lists copy node ids in hop order; the
    first reads the producer's home cluster and the last targets the
    consumer's cluster."""

    producer: int
    consumer: int
    producer_cluster: int
    consumer_cluster: int
    chain: Tuple[int, ...]


@dataclass(frozen=True)
class AssignmentWitness:
    """The cluster assignment: node -> cluster pairs, every inserted
    copy, and one route per (producer, consumer) cross-cluster flow."""

    cluster_of: Tuple[Tuple[int, int], ...]
    copies: Tuple[CopyWitness, ...] = ()
    routes: Tuple[RouteWitness, ...] = ()

    def cluster_map(self) -> Dict[int, int]:
        """Node id -> cluster index map."""
        return dict(self.cluster_of)


@dataclass(frozen=True)
class SlotWitness:
    """Occupancy of one (resource, kernel row) slot: the ops holding it
    (sorted ids) against the pool's per-cycle capacity."""

    resource: str
    row: int
    ops: Tuple[int, ...]
    capacity: int


@dataclass(frozen=True)
class ScheduleWitness:
    """The modulo schedule: start cycles, per-edge timing slack (aligned
    with the graph witness's edge order; each must be >= 0), and every
    nonempty per-(resource, row) occupancy slot."""

    ii: int
    start: Tuple[Tuple[int, int], ...]
    edge_slack: Tuple[int, ...] = ()
    slots: Tuple[SlotWitness, ...] = ()

    def start_map(self) -> Dict[int, int]:
        """Node id -> start cycle map."""
        return dict(self.start)


@dataclass(frozen=True)
class RegallocWitness:
    """The MVE register allocation: lifetime intervals
    ``(producer, cluster, birth, death)``, per-instance assignments
    ``(producer, cluster, instance, register, start_cycle, length)``
    over the ``unroll * ii`` span, and per-cluster file sizes."""

    unroll: int
    lifetimes: Tuple[Tuple[int, int, int, int], ...] = ()
    assignments: Tuple[Tuple[int, int, int, int, int, int], ...] = ()
    registers_per_cluster: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Certificate:
    """Everything one compiled loop claims, with witnesses.

    ``recmii`` / ``resmii`` certify the unified-machine MII claim
    (``mii == max(recmii, resmii, 1)``, computed on the *original* DDG);
    ``sched_recmii`` / ``sched_resources`` certify the achieved-II lower
    bound on the *annotated* graph under the fixed cluster assignment
    (their max is the floor the exact tightness oracle starts from).
    """

    loop: str
    machine: str
    ii: int
    mii: int
    recmii: RecMiiWitness
    resmii: ResMiiWitness
    sched_recmii: RecMiiWitness
    sched_resources: ResMiiWitness
    graph: GraphWitness
    assignment: AssignmentWitness
    schedule: ScheduleWitness
    regalloc: RegallocWitness

    @property
    def ii_floor(self) -> int:
        """Certified lower bound on the achieved II (fixed assignment)."""
        return max(self.sched_recmii.value, self.sched_resources.value, 1)

    def to_dict(self) -> Dict:
        """Plain-dict (JSON-ready) form; inverse of :func:`from_dict`."""
        return _to_plain(self)


def _to_plain(value):
    if isinstance(value, (RecMiiWitness, ResMiiWitness, GraphWitness,
                          CopyWitness, RouteWitness, AssignmentWitness,
                          SlotWitness, ScheduleWitness, RegallocWitness,
                          Certificate)):
        return {
            f.name: _to_plain(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, tuple):
        return [_to_plain(item) for item in value]
    return value


def _tuples(items):
    """Recursively freeze JSON lists back into tuples."""
    return tuple(
        _tuples(item) if isinstance(item, list) else item
        for item in items
    )


def from_dict(doc: Dict) -> Certificate:
    """Rebuild a :class:`Certificate` from its :meth:`to_dict` form."""
    return Certificate(
        loop=doc["loop"],
        machine=doc["machine"],
        ii=int(doc["ii"]),
        mii=int(doc["mii"]),
        recmii=_recmii(doc["recmii"]),
        resmii=_resmii(doc["resmii"]),
        sched_recmii=_recmii(doc["sched_recmii"]),
        sched_resources=_resmii(doc["sched_resources"]),
        graph=GraphWitness(
            nodes=_tuples(doc["graph"]["nodes"]),
            edges=_tuples(doc["graph"]["edges"]),
        ),
        assignment=AssignmentWitness(
            cluster_of=_tuples(doc["assignment"]["cluster_of"]),
            copies=tuple(
                CopyWitness(
                    copy_id=c["copy_id"], value_of=c["value_of"],
                    src_cluster=c["src_cluster"],
                    targets=tuple(c["targets"]),
                    resources=tuple(c["resources"]),
                )
                for c in doc["assignment"]["copies"]
            ),
            routes=tuple(
                RouteWitness(
                    producer=r["producer"], consumer=r["consumer"],
                    producer_cluster=r["producer_cluster"],
                    consumer_cluster=r["consumer_cluster"],
                    chain=tuple(r["chain"]),
                )
                for r in doc["assignment"]["routes"]
            ),
        ),
        schedule=ScheduleWitness(
            ii=int(doc["schedule"]["ii"]),
            start=_tuples(doc["schedule"]["start"]),
            edge_slack=tuple(doc["schedule"]["edge_slack"]),
            slots=tuple(
                SlotWitness(
                    resource=s["resource"], row=s["row"],
                    ops=tuple(s["ops"]), capacity=s["capacity"],
                )
                for s in doc["schedule"]["slots"]
            ),
        ),
        regalloc=RegallocWitness(
            unroll=int(doc["regalloc"]["unroll"]),
            lifetimes=_tuples(doc["regalloc"]["lifetimes"]),
            assignments=_tuples(doc["regalloc"]["assignments"]),
            registers_per_cluster=_tuples(
                doc["regalloc"]["registers_per_cluster"]
            ),
        ),
    )


def _recmii(doc: Dict) -> RecMiiWitness:
    return RecMiiWitness(value=int(doc["value"]),
                         cycle=_tuples(doc["cycle"]))


def _resmii(doc: Dict) -> ResMiiWitness:
    return ResMiiWitness(value=int(doc["value"]),
                         demand=_tuples(doc["demand"]))
