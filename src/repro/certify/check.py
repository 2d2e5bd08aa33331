"""Independent certificate verifier.

:func:`check_certificate` validates a :class:`~repro.certify.witness.
Certificate` against nothing but the original DDG and the machine
description.  It deliberately imports **no pipeline code** — not
``core/``, not ``scheduling/``, not ``mrt/`` — so a bug in the compiler
cannot hide inside its own proof checker
(``tests/certify/test_independence.py`` walks this module's import graph
to enforce that).  The DDG and machine are accessed through their small
duck-typed surfaces only:

* DDG: ``nodes`` / ``node(id)`` / ``edges`` with ``Node.opcode`` (an
  enum whose ``.value`` is the opcode string), ``Node.latency``,
  ``Node.produces_value``, ``Node.fu_class``, and ``Edge.src`` /
  ``Edge.dst`` / ``Edge.distance``;
* machine: ``n_clusters``, ``general_purpose``, ``issue_capacity``,
  ``resource_capacities``, ``op_resources``, ``copy_hop_resources``,
  ``interconnect.reachable``.

Every algorithm here is a from-scratch re-derivation: Bellman–Ford
positive-cycle probes for the recurrence bounds, multiset edge
accounting for graph fidelity, per-slot occupancy recounting, and
cyclic-interval bitmask packing for register lifetimes.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, NamedTuple, Optional, Tuple

from .witness import Certificate, RecMiiWitness, resource_key_str

#: Copy latency fixed by the paper's Table 2.  The checker re-asserts it
#: against every copy node the certificate declares rather than reading
#: the pipeline's latency table.
COPY_LATENCY = 1
COPY_OPCODE = "copy"


class CertIssue(NamedTuple):
    """One verification failure: stable code, where, and why."""

    code: str
    location: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.code} [{self.location}] {self.message}"


def check_certificate(cert: Certificate, ddg, machine) -> List[CertIssue]:
    """Validate every witness in ``cert``; empty list means proven.

    Sections run independently with crash containment: a malformed
    certificate that makes one section raise (missing node, bad enum
    string) is reported as that section's failure instead of aborting
    the whole check.
    """
    return _run_sections(cert, ddg, machine, _ALL_SECTIONS)


#: The sections that judge a schedule on its own: the cluster
#: assignment and copy routing of its annotated graph (CERT603),
#: per-edge timing (CERT604) and per-slot occupancy (CERT605).
SCHEDULE_SECTIONS = frozenset({"CERT603", "CERT604", "CERT605"})

_ALL_SECTIONS = frozenset(
    {"CERT600", "CERT601", "CERT602", "CERT606"} | SCHEDULE_SECTIONS
)


def check_schedule_sections(
    cert: Certificate, ddg, machine
) -> List[CertIssue]:
    """Run only :data:`SCHEDULE_SECTIONS` over ``cert``.

    ``ddg`` may be the annotated graph itself: these sections read the
    graph only for opcode and value-production facts, which copies and
    original operations both carry.  The MII claims and the register
    allocation are not judged, so a certificate built for a bare
    schedule may leave those witnesses empty.
    """
    return _run_sections(cert, ddg, machine, SCHEDULE_SECTIONS)


def emission_failure(exc: BaseException) -> CertIssue:
    """The CERT603 issue for an artifact the emitter could not describe.

    Emitting a certificate reads the annotated graph's cluster map and
    copy metadata directly, so a malformed artifact (an unassigned
    node, an out-of-range cluster, an illegal copy hop, a copy that
    forgot its value) raises there before any witness exists.  Callers
    report that as one failure of the assignment section.
    """
    return CertIssue(
        "CERT603", "certificate",
        f"certificate emission failed: {exc!r}",
    )


def _run_sections(cert, ddg, machine, codes) -> List[CertIssue]:
    issues: List[CertIssue] = []
    sections = (
        ("CERT600", "graph", _check_graph),
        ("CERT601", "recurrence", _check_recurrence),
        ("CERT602", "resources", _check_resources),
        ("CERT603", "assignment", _check_assignment),
        ("CERT604", "timing", _check_timing),
        ("CERT605", "occupancy", _check_occupancy),
        ("CERT606", "regalloc", _check_regalloc),
    )
    for code, location, section in sections:
        if code not in codes:
            continue
        try:
            section(cert, ddg, machine, issues)
        except Exception as exc:  # noqa: BLE001 - containment by design
            issues.append(
                CertIssue(
                    code,
                    location,
                    f"certificate malformed, section aborted: {exc!r}",
                )
            )
    return issues


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _demand_mismatch(
    witnessed: Dict[str, Tuple[int, int]],
    expected: Dict[str, Tuple[int, int]],
) -> str:
    """Each pool whose witnessed ``(uses, capacity)`` differs from the
    recount, with both sides (``absent`` where a side lacks the pool)."""
    return "; ".join(
        f"{pool}: witness {witnessed.get(pool, 'absent')}, "
        f"recount {expected.get(pool, 'absent')}"
        for pool in sorted(witnessed.keys() | expected.keys(), key=str)
        if witnessed.get(pool) != expected.get(pool)
    )


def _positive_cycle(
    nodes: List[int],
    edges: List[Tuple[int, int, int, int]],
    ii: int,
) -> bool:
    """True when some cycle has ``sum(latency) - ii * sum(distance) > 0``.

    Bellman–Ford longest-path relaxation from an implicit super-source
    (all distances start at 0); a relaxation still possible after
    ``len(nodes)`` passes proves a positive cycle.  Re-derived here —
    the checker must not share the pipeline's implementation.
    """
    dist = {node: 0 for node in nodes}
    for _ in range(len(nodes)):
        changed = False
        for src, dst, latency, distance in edges:
            candidate = dist[src] + latency - ii * distance
            if candidate > dist[dst]:
                dist[dst] = candidate
                changed = True
        if not changed:
            return False
    return True


#: Single-entry memo of derived per-certificate maps.  Every checker
#: section needs the same copy/cluster/start/latency dictionaries; one
#: certificate is checked at a time, so caching the last one collapses
#: four rebuilds per section pass into one.
_CERT_CTX: dict = {"cert": None}


def _copy_ids(cert: Certificate) -> Dict[int, object]:
    """Copy id -> :class:`CopyWitness` map."""
    if _CERT_CTX["cert"] is not cert:
        _CERT_CTX.clear()
        _CERT_CTX["cert"] = cert
    ids = _CERT_CTX.get("copy_ids")
    if ids is None:
        ids = {copy.copy_id: copy for copy in cert.assignment.copies}
        _CERT_CTX["copy_ids"] = ids
    return ids


def _cluster_map(cert: Certificate) -> Dict[int, int]:
    if _CERT_CTX["cert"] is not cert:
        _CERT_CTX.clear()
        _CERT_CTX["cert"] = cert
    out = _CERT_CTX.get("cluster_map")
    if out is None:
        out = cert.assignment.cluster_map()
        _CERT_CTX["cluster_map"] = out
    return out


def _start_map(cert: Certificate) -> Dict[int, int]:
    if _CERT_CTX["cert"] is not cert:
        _CERT_CTX.clear()
        _CERT_CTX["cert"] = cert
    out = _CERT_CTX.get("start_map")
    if out is None:
        out = cert.schedule.start_map()
        _CERT_CTX["start_map"] = out
    return out


def _node_latency(cert: Certificate) -> Dict[int, int]:
    if _CERT_CTX["cert"] is not cert:
        _CERT_CTX.clear()
        _CERT_CTX["cert"] = cert
    out = _CERT_CTX.get("latency")
    if out is None:
        out = cert.graph.latency_of()
        _CERT_CTX["latency"] = out
    return out


#: Per-machine lookup tables (capacity strings, per-opcode resource
#: keys), keyed by identity with a weakref guard so a recycled id can
#: never alias a collected machine.  Corpus runs verify dozens of
#: certificates against one machine; the recounted tables are pure
#: functions of the machine description, so caching them changes no
#: verdict — every lookup still recomputes on first sight.
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
    """Canonical resource-key string -> per-cycle capacity."""
    memo = _memo_for(machine)
    caps = memo.get("caps")
    if caps is None:
        caps = {
            resource_key_str(key): capacity
            for key, capacity in machine.resource_capacities().items()
        }
        memo["caps"] = caps
    return caps


def _opcode_member(ddg, opcode_str: str):
    """The machine-side opcode enum member for ``opcode_str``.

    The enum *class* is taken from the DDG's own nodes (duck typing —
    no import), so the member is identical to what the machine's
    ``op_resources`` expects.
    """
    nodes = ddg.nodes
    if not nodes:
        raise ValueError("empty DDG carries no opcode enum")
    return type(nodes[0].opcode)(opcode_str)


def _op_keys(machine, ddg, opcode_str: str, cluster: int) -> List[str]:
    """Resource-key strings of one real op on one cluster."""
    memo = _memo_for(machine).setdefault("op", {})
    key = (opcode_str, cluster)
    keys = memo.get(key)
    if keys is None:
        keys = [
            resource_key_str(k)
            for k in machine.op_resources(
                _opcode_member(ddg, opcode_str), cluster
            )
        ]
        memo[key] = keys
    return keys


def _copy_resources(cert: Certificate, machine, copy) -> Optional[List[str]]:
    """Independent recomputation of one copy's resource pools.

    None when the machine refuses the copy (a hop off the fabric, a
    target equal to the source): CERT603 reports it, and the recounts
    of CERT602 and CERT605 leave it out.
    """
    memo = _memo_for(machine).setdefault("copy", {})
    key = (copy.src_cluster, copy.targets)
    keys = memo.get(key)
    if keys is None:
        try:
            pools = machine.copy_hop_resources(
                copy.src_cluster, list(copy.targets)
            )
        except ValueError:
            return None
        keys = [resource_key_str(k) for k in pools]
        memo[key] = keys
    return keys


# ----------------------------------------------------------------------
# CERT600 — graph witness structure + fidelity to the original DDG
# ----------------------------------------------------------------------
def _check_graph(cert: Certificate, ddg, machine, issues) -> None:
    add = issues.append
    copies = _copy_ids(cert)
    witness_nodes = {node_id for node_id, _, _ in cert.graph.nodes}

    # Original nodes must appear verbatim; extras must be declared copies.
    originals = {node.node_id: node for node in ddg.nodes}
    for node_id, opcode, latency in cert.graph.nodes:
        original = originals.get(node_id)
        if original is not None:
            if opcode != original.opcode.value or latency != original.latency:
                add(CertIssue(
                    "CERT600", f"node {node_id}",
                    f"witness declares {opcode}/{latency}, DDG has "
                    f"{original.opcode.value}/{original.latency}",
                ))
        elif node_id not in copies:
            add(CertIssue(
                "CERT600", f"node {node_id}",
                "witness node is neither an original op nor a declared copy",
            ))
        elif opcode != COPY_OPCODE or latency != COPY_LATENCY:
            add(CertIssue(
                "CERT600", f"node {node_id}",
                f"declared copy has opcode {opcode} latency {latency}, "
                f"expected {COPY_OPCODE}/{COPY_LATENCY}",
            ))
    for node_id in originals:
        if node_id not in witness_nodes:
            add(CertIssue(
                "CERT600", f"node {node_id}",
                "original operation missing from the graph witness",
            ))
    for copy_id in copies:
        if copy_id in originals:
            add(CertIssue(
                "CERT600", f"copy {copy_id}",
                "declared copy shadows an original operation id",
            ))
        if copy_id not in witness_nodes:
            add(CertIssue(
                "CERT600", f"copy {copy_id}",
                "declared copy missing from the graph witness",
            ))

    # Multiset edge accounting: every original dependence must be carried
    # exactly once — verbatim, or by the value's copy carrier — and every
    # producer->copy feed must hand over the right value.  Anything left
    # in either direction is a forged or dropped dependence.
    remaining: Dict[Tuple[int, int, int], int] = {}
    for edge in ddg.edges:
        key = (edge.src, edge.dst, edge.distance)
        remaining[key] = remaining.get(key, 0) + 1

    copy_in_edges: Dict[int, int] = {}
    for src, dst, distance in cert.graph.edges:
        if src not in witness_nodes or dst not in witness_nodes:
            add(CertIssue(
                "CERT600", f"edge {src}->{dst}",
                "edge endpoint is not a witness node",
            ))
            continue
        if dst in copies:
            # A copy is fed exactly once, same-iteration, by a node that
            # holds its value on the copy's source cluster (CERT603
            # checks the cluster part; here: value identity + shape).
            copy_in_edges[dst] = copy_in_edges.get(dst, 0) + 1
            value = copies[dst].value_of
            carried = copies[src].value_of if src in copies else src
            if distance != 0:
                add(CertIssue(
                    "CERT600", f"edge {src}->{dst}",
                    f"copy feed must have distance 0, got {distance}",
                ))
            if carried != value:
                add(CertIssue(
                    "CERT600", f"edge {src}->{dst}",
                    f"copy {dst} transports value {value} but is fed "
                    f"value {carried}",
                ))
            continue
        producer = copies[src].value_of if src in copies else src
        key = (producer, dst, distance)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            add(CertIssue(
                "CERT600", f"edge {src}->{dst}",
                f"no unconsumed original dependence "
                f"{producer}->{dst} (distance {distance}) backs this edge",
            ))
    for (src, dst, distance), count in remaining.items():
        if count > 0:
            add(CertIssue(
                "CERT600", f"edge {src}->{dst}",
                f"original dependence (distance {distance}) dropped by "
                f"the annotated graph ({count} missing)",
            ))
    fed = {src for src, _, _ in cert.graph.edges}
    for copy_id in copies:
        if copy_in_edges.get(copy_id, 0) != 1:
            add(CertIssue(
                "CERT600", f"copy {copy_id}",
                f"copy has {copy_in_edges.get(copy_id, 0)} feed edges, "
                f"expected exactly 1",
            ))
        if copy_id not in fed:
            add(CertIssue(
                "CERT600", f"copy {copy_id}",
                "orphaned copy: it feeds no edge, so its transfer is "
                "never read",
            ))


# ----------------------------------------------------------------------
# CERT601 — recurrence-bound witnesses (critical cycles)
# ----------------------------------------------------------------------
def _check_recmii_witness(
    tag: str,
    witness: RecMiiWitness,
    nodes: List[int],
    latency_of: Dict[int, int],
    edge_index: Dict[Tuple[int, int, int], bool],
    edges: List[Tuple[int, int, int, int]],
    issues,
) -> None:
    add = issues.append
    value = witness.value
    if value < 0:
        add(CertIssue("CERT601", tag, f"negative bound {value}"))
        return
    if value == 0:
        if witness.cycle:
            add(CertIssue(
                "CERT601", tag,
                "bound 0 (no constraining cycle) must carry no cycle",
            ))
        if _positive_cycle(nodes, edges, 0):
            add(CertIssue(
                "CERT601", tag,
                "claims no recurrence constraint, but a positive cycle "
                "exists at II=0",
            ))
        return
    if not witness.cycle:
        add(CertIssue(
            "CERT601", tag, f"bound {value} claimed without a cycle witness"
        ))
        return
    # The cycle must be a closed walk of real edges with true latencies.
    closed = True
    for position, (src, dst, latency, distance) in enumerate(witness.cycle):
        nxt = witness.cycle[(position + 1) % len(witness.cycle)]
        if dst != nxt[0]:
            closed = False
        if (src, dst, distance) not in edge_index:
            add(CertIssue(
                "CERT601", tag,
                f"cycle edge {src}->{dst} (distance {distance}) does not "
                f"exist in the graph",
            ))
        if latency_of.get(src) != latency:
            add(CertIssue(
                "CERT601", tag,
                f"cycle edge {src}->{dst} claims latency {latency}, node "
                f"has {latency_of.get(src)}",
            ))
    if not closed:
        add(CertIssue("CERT601", tag, "witness edges do not form a cycle"))
        return
    total_latency = witness.cycle_latency
    total_distance = witness.cycle_distance
    if total_distance <= 0:
        add(CertIssue(
            "CERT601", tag,
            f"witness cycle has total distance {total_distance}",
        ))
        return
    attained = _ceil_div(total_latency, total_distance)
    if attained != value:
        add(CertIssue(
            "CERT601", tag,
            f"cycle attains ceil({total_latency}/{total_distance}) = "
            f"{attained}, not the claimed {value}",
        ))
    # Maximality: no cycle anywhere in the graph may exceed the claim.
    if _positive_cycle(nodes, edges, value):
        add(CertIssue(
            "CERT601", tag,
            f"some cycle still violates II={value}: the claimed bound "
            f"understates the true recurrence minimum",
        ))


def _check_recurrence(cert: Certificate, ddg, machine, issues) -> None:
    original_nodes = [node.node_id for node in ddg.nodes]
    original_latency = {node.node_id: node.latency for node in ddg.nodes}
    original_edges = [
        (edge.src, edge.dst, ddg.node(edge.src).latency, edge.distance)
        for edge in ddg.edges
    ]
    original_index = {
        (src, dst, distance): True
        for src, dst, _, distance in original_edges
    }
    _check_recmii_witness(
        "recmii", cert.recmii, original_nodes, original_latency,
        original_index, original_edges, issues,
    )
    sched_nodes = [node_id for node_id, _, _ in cert.graph.nodes]
    sched_latency = _node_latency(cert)
    sched_edges = [
        (src, dst, sched_latency[src], distance)
        for src, dst, distance in cert.graph.edges
    ]
    sched_index = {
        (src, dst, distance): True for src, dst, _, distance in sched_edges
    }
    _check_recmii_witness(
        "sched_recmii", cert.sched_recmii, sched_nodes, sched_latency,
        sched_index, sched_edges, issues,
    )


# ----------------------------------------------------------------------
# CERT602 — resource-bound witnesses + II/MII arithmetic
# ----------------------------------------------------------------------
def _check_resources(cert: Certificate, ddg, machine, issues) -> None:
    add = issues.append

    # Unified ResMII, recounted from the original DDG.
    expected: Dict[str, Tuple[int, int]] = {}
    real_ops = [
        node for node in ddg.nodes if node.opcode.value != COPY_OPCODE
    ]
    if real_ops:
        if machine.general_purpose:
            width = machine.issue_capacity(real_ops[0].fu_class)
            expected["gp"] = (len(real_ops), width)
        else:
            per_class: Dict[object, int] = {}
            for node in real_ops:
                per_class[node.fu_class] = per_class.get(node.fu_class, 0) + 1
            for fu_class, uses in per_class.items():
                expected[fu_class.value] = (
                    uses, machine.issue_capacity(fu_class)
                )
    witnessed = {pool: (uses, cap) for pool, uses, cap in cert.resmii.demand}
    if witnessed != expected:
        add(CertIssue(
            "CERT602", "resmii",
            f"counting evidence does not match the machine's recount: "
            f"{_demand_mismatch(witnessed, expected)}",
        ))
    else:
        for pool, (uses, capacity) in expected.items():
            if capacity <= 0:
                add(CertIssue(
                    "CERT602", "resmii",
                    f"pool {pool} has non-positive capacity {capacity}",
                ))
        value = max(
            [_ceil_div(uses, cap) for uses, cap in expected.values() if cap > 0]
            or [1]
        )
        value = max(value, 1)
        if cert.resmii.value != value:
            add(CertIssue(
                "CERT602", "resmii",
                f"claimed {cert.resmii.value}, counting gives {value}",
            ))

    # Per-resource floor on the clustered machine under this assignment.
    sched_expected = _sched_resource_demand(cert, ddg, machine)
    sched_witnessed = {
        pool: (uses, cap) for pool, uses, cap in cert.sched_resources.demand
    }
    if sched_witnessed != sched_expected:
        add(CertIssue(
            "CERT602", "sched_resources",
            f"counting evidence does not match the machine's recount: "
            f"{_demand_mismatch(sched_witnessed, sched_expected)}",
        ))
    else:
        value = max(
            [
                _ceil_div(uses, cap)
                for uses, cap in sched_expected.values()
                if cap > 0
            ]
            or [1]
        )
        value = max(value, 1)
        if cert.sched_resources.value != value:
            add(CertIssue(
                "CERT602", "sched_resources",
                f"claimed {cert.sched_resources.value}, counting gives "
                f"{value}",
            ))

    # Arithmetic tying the claims together.
    mii = max(cert.recmii.value, cert.resmii.value, 1)
    if cert.mii != mii:
        add(CertIssue(
            "CERT602", "mii",
            f"claimed MII {cert.mii} != max(recmii {cert.recmii.value}, "
            f"resmii {cert.resmii.value}, 1) = {mii}",
        ))
    if cert.ii != cert.schedule.ii:
        add(CertIssue(
            "CERT602", "ii",
            f"certificate II {cert.ii} disagrees with schedule witness "
            f"II {cert.schedule.ii}",
        ))
    if cert.ii < mii:
        add(CertIssue(
            "CERT602", "ii",
            f"achieved II {cert.ii} is below the certified MII {mii}",
        ))
    for tag, value in (
        ("sched_recmii", cert.sched_recmii.value),
        ("sched_resources", cert.sched_resources.value),
    ):
        if value > cert.ii:
            add(CertIssue(
                "CERT602", tag,
                f"lower bound {value} exceeds the achieved II {cert.ii} — "
                f"the schedule witness cannot be valid",
            ))


def _sched_resource_demand(
    cert: Certificate, ddg, machine
) -> Dict[str, Tuple[int, int]]:
    """Uses per resource pool of the annotated graph, with capacities."""
    capacities = _capacity_strings(machine)
    cluster_of = _cluster_map(cert)
    copies = _copy_ids(cert)
    uses: Dict[str, int] = {}
    for node_id, opcode, _ in cert.graph.nodes:
        if node_id in copies:
            keys = _copy_resources(cert, machine, copies[node_id]) or ()
        else:
            keys = _op_keys(machine, ddg, opcode, cluster_of[node_id])
        for key in keys:
            uses[key] = uses.get(key, 0) + 1
    return {
        key: (count, capacities.get(key, 0))
        for key, count in sorted(uses.items())
    }


# ----------------------------------------------------------------------
# CERT603 — cluster assignment + copy-routing legality
# ----------------------------------------------------------------------
def _check_assignment(cert: Certificate, ddg, machine, issues) -> None:
    add = issues.append
    cluster_of = _cluster_map(cert)
    copies = _copy_ids(cert)
    witness_nodes = {node_id for node_id, _, _ in cert.graph.nodes}

    for node_id in witness_nodes:
        cluster = cluster_of.get(node_id)
        if cluster is None:
            add(CertIssue(
                "CERT603", f"node {node_id}", "no cluster assignment"
            ))
        elif not 0 <= cluster < machine.n_clusters:
            add(CertIssue(
                "CERT603", f"node {node_id}",
                f"assigned to nonexistent cluster {cluster}",
            ))

    # Copies: declared home/source cluster consistent, hops reachable,
    # resource claims identical to the machine's own accounting.
    for copy in cert.assignment.copies:
        where = f"copy {copy.copy_id}"
        if cluster_of.get(copy.copy_id) != copy.src_cluster:
            add(CertIssue(
                "CERT603", where,
                f"declared source cluster {copy.src_cluster} but assigned "
                f"to {cluster_of.get(copy.copy_id)}",
            ))
        if not copy.targets:
            add(CertIssue("CERT603", where, "copy has no target clusters"))
            continue
        for target in copy.targets:
            if not machine.interconnect.reachable(copy.src_cluster, target):
                add(CertIssue(
                    "CERT603", where,
                    f"hop {copy.src_cluster}->{target} is not legal on "
                    f"this interconnect",
                ))
                break
        else:
            recomputed = _copy_resources(cert, machine, copy)
            if recomputed is None:
                add(CertIssue(
                    "CERT603", where,
                    f"the machine refuses a copy from cluster "
                    f"{copy.src_cluster} to {list(copy.targets)}",
                ))
            elif list(copy.resources) != recomputed:
                add(CertIssue(
                    "CERT603", where,
                    f"claims resources {list(copy.resources)}, machine "
                    f"accounting gives {recomputed}",
                ))

    # Edge-level legality: a value edge may only cross clusters when its
    # source is a copy that targets the consumer's cluster.
    produces = {node.node_id: node.produces_value for node in ddg.nodes}
    for src, dst, _ in cert.graph.edges:
        src_cluster = cluster_of.get(src)
        dst_cluster = cluster_of.get(dst)
        if src_cluster is None or dst_cluster is None:
            continue  # already reported above
        if src in copies:
            # A copy may only feed clusters it writes to — including the
            # source cluster of the next copy in a chain.  Its own
            # cluster is never one of them: a consumer there reads a
            # register the copy does not write.
            if dst_cluster not in copies[src].targets:
                add(CertIssue(
                    "CERT603", f"edge {src}->{dst}",
                    f"copy feeds cluster {dst_cluster} but only targets "
                    f"{list(copies[src].targets)}",
                ))
            continue
        if src_cluster == dst_cluster:
            continue
        if produces.get(src, True):
            add(CertIssue(
                "CERT603", f"edge {src}->{dst}",
                f"value crosses clusters {src_cluster}->{dst_cluster} "
                f"without a copy",
            ))

    # Route witnesses: every chain must start at the producer's home,
    # stay value-consistent, and deliver to the consumer's cluster.
    route_index = set()
    for route in cert.assignment.routes:
        where = f"route {route.producer}->{route.consumer}"
        route_index.add((route.producer, route.consumer))
        if cluster_of.get(route.producer) != route.producer_cluster:
            add(CertIssue(
                "CERT603", where,
                f"declares producer cluster {route.producer_cluster}, "
                f"assignment says {cluster_of.get(route.producer)}",
            ))
        if cluster_of.get(route.consumer) != route.consumer_cluster:
            add(CertIssue(
                "CERT603", where,
                f"declares consumer cluster {route.consumer_cluster}, "
                f"assignment says {cluster_of.get(route.consumer)}",
            ))
        if not route.chain:
            add(CertIssue(
                "CERT603", where,
                "cross-cluster route with an empty copy chain",
            ))
            continue
        available = {route.producer_cluster}
        legal = True
        for copy_id in route.chain:
            copy = copies.get(copy_id)
            if copy is None or copy.value_of != route.producer:
                add(CertIssue(
                    "CERT603", where,
                    f"chain element {copy_id} is not a copy of value "
                    f"{route.producer}",
                ))
                legal = False
                break
            if copy.src_cluster not in available:
                add(CertIssue(
                    "CERT603", where,
                    f"chain reads cluster {copy.src_cluster} before the "
                    f"value arrives there",
                ))
                legal = False
                break
            available.update(copy.targets)
        if legal and route.consumer_cluster not in available:
            add(CertIssue(
                "CERT603", where,
                f"chain never delivers the value to cluster "
                f"{route.consumer_cluster}",
            ))

    # Every cross-cluster value flow carried by a copy must be routed.
    for src, dst, _ in cert.graph.edges:
        if src in copies and dst not in copies:
            producer = copies[src].value_of
            if (producer, dst) not in route_index:
                add(CertIssue(
                    "CERT603", f"edge {src}->{dst}",
                    f"cross-cluster flow {producer}->{dst} has no route "
                    f"witness",
                ))


# ----------------------------------------------------------------------
# CERT604 — per-edge timing
# ----------------------------------------------------------------------
def _check_timing(cert: Certificate, ddg, machine, issues) -> None:
    add = issues.append
    start = _start_map(cert)
    latency_of = _node_latency(cert)
    witness_nodes = {node_id for node_id, _, _ in cert.graph.nodes}
    ii = cert.schedule.ii
    if ii < 1:
        add(CertIssue("CERT604", "schedule", f"II must be >= 1, got {ii}"))
        return
    if set(start) != witness_nodes:
        missing = sorted(witness_nodes - set(start))
        extra = sorted(set(start) - witness_nodes)
        add(CertIssue(
            "CERT604", "schedule",
            f"start cycles do not cover the graph exactly "
            f"(missing {missing}, extra {extra})",
        ))
        return
    for node_id, cycle in start.items():
        if cycle < 0:
            add(CertIssue(
                "CERT604", f"node {node_id}",
                f"negative start cycle {cycle}",
            ))
    if len(cert.schedule.edge_slack) != len(cert.graph.edges):
        add(CertIssue(
            "CERT604", "schedule",
            f"{len(cert.schedule.edge_slack)} slack entries for "
            f"{len(cert.graph.edges)} edges",
        ))
        return
    for index, (src, dst, distance) in enumerate(cert.graph.edges):
        slack = start[dst] + ii * distance - start[src] - latency_of[src]
        if slack < 0:
            add(CertIssue(
                "CERT604", f"edge {src}->{dst}",
                f"dependence (distance {distance}) violated: "
                f"start[{dst}]={start[dst]} + {ii}*{distance} < "
                f"start[{src}]={start[src]} + latency {latency_of[src]}",
            ))
        if slack != cert.schedule.edge_slack[index]:
            add(CertIssue(
                "CERT604", f"edge {src}->{dst}",
                f"witnessed slack {cert.schedule.edge_slack[index]} != "
                f"actual {slack}",
            ))


# ----------------------------------------------------------------------
# CERT605 — per-slot occupancy
# ----------------------------------------------------------------------
def _check_occupancy(cert: Certificate, ddg, machine, issues) -> None:
    add = issues.append
    ii = cert.schedule.ii
    if ii < 1:
        return  # reported by CERT604
    capacities = _capacity_strings(machine)
    cluster_of = _cluster_map(cert)
    copies = _copy_ids(cert)
    start = _start_map(cert)

    actual: Dict[Tuple[str, int], List[int]] = {}
    for node_id, opcode, _ in cert.graph.nodes:
        cycle = start.get(node_id)
        cluster = cluster_of.get(node_id)
        if cycle is None or cluster is None:
            return  # structure already reported elsewhere
        if node_id in copies:
            keys = _copy_resources(cert, machine, copies[node_id]) or ()
        else:
            keys = _op_keys(machine, ddg, opcode, cluster)
        row = cycle % ii
        for key in keys:
            actual.setdefault((key, row), []).append(node_id)

    witnessed = {
        (slot.resource, slot.row): slot for slot in cert.schedule.slots
    }
    for (resource, row), ops in sorted(actual.items()):
        ops.sort()
        capacity = capacities.get(resource)
        if capacity is None:
            add(CertIssue(
                "CERT605", f"{resource} row {row}",
                "occupied resource does not exist on this machine",
            ))
            continue
        if len(ops) > capacity:
            add(CertIssue(
                "CERT605", f"{resource} row {row}",
                f"slot double-booked: ops {ops} exceed capacity {capacity}",
            ))
        slot = witnessed.get((resource, row))
        if slot is None:
            add(CertIssue(
                "CERT605", f"{resource} row {row}",
                f"occupancy by ops {ops} missing from the witness",
            ))
        else:
            if list(slot.ops) != ops:
                add(CertIssue(
                    "CERT605", f"{resource} row {row}",
                    f"witness lists ops {list(slot.ops)}, recount gives "
                    f"{ops}",
                ))
            if slot.capacity != capacity:
                add(CertIssue(
                    "CERT605", f"{resource} row {row}",
                    f"witness claims capacity {slot.capacity}, machine "
                    f"has {capacity}",
                ))
    for (resource, row), slot in sorted(witnessed.items()):
        if (resource, row) not in actual:
            add(CertIssue(
                "CERT605", f"{resource} row {row}",
                f"witness slot (ops {list(slot.ops)}) has no occupancy "
                f"in the schedule",
            ))


# ----------------------------------------------------------------------
# CERT606 — register-allocation lifetime witnesses
# ----------------------------------------------------------------------
def _check_regalloc(cert: Certificate, ddg, machine, issues) -> None:
    add = issues.append
    ii = cert.schedule.ii
    if ii < 1:
        return  # reported by CERT604
    start = _start_map(cert)
    latency_of = _node_latency(cert)
    cluster_of = _cluster_map(cert)
    copies = _copy_ids(cert)
    # produces_value is a pure function of the opcode; resolve each
    # opcode's flag once instead of per node.
    produced_by_op: Dict[object, bool] = {}
    produces: Dict[int, bool] = {}
    for node in ddg.nodes:
        flag = produced_by_op.get(node.opcode)
        if flag is None:
            flag = node.produces_value
            produced_by_op[node.opcode] = flag
        produces[node.node_id] = flag

    # Recompute lifetimes from scratch: a value is born at producer
    # completion and dies at its last read per consuming cluster
    # (loop-carried reads die II*distance later).
    last_read: Dict[Tuple[int, int], int] = {}
    for src, dst, distance in cert.graph.edges:
        death = start[dst] + ii * distance
        key = (src, cluster_of[dst])
        if death > last_read.get(key, death - 1):
            last_read[key] = death
    expected = set()
    for node_id, _, _ in cert.graph.nodes:
        if node_id in copies:
            clusters = copies[node_id].targets
        elif produces.get(node_id, False):
            clusters = (cluster_of[node_id],)
        else:
            continue
        birth = start[node_id] + latency_of[node_id]
        for cluster in clusters:
            death = last_read.get((node_id, cluster))
            if death is not None:
                expected.add((node_id, cluster, birth, death))
    witnessed = set(cert.regalloc.lifetimes)
    for lifetime in sorted(witnessed - expected):
        add(CertIssue(
            "CERT606", f"value {lifetime[0]}",
            f"witness lifetime {lifetime} does not match the schedule",
        ))
    for lifetime in sorted(expected - witnessed):
        add(CertIssue(
            "CERT606", f"value {lifetime[0]}",
            f"live range {lifetime} missing from the witness",
        ))
    if witnessed != expected:
        return

    # MVE arithmetic: the unroll factor must cover the longest value.
    unroll = 1
    for _, _, birth, death in expected:
        unroll = max(unroll, _ceil_div(max(0, death - birth), ii) or 1)
    if cert.regalloc.unroll != unroll:
        add(CertIssue(
            "CERT606", "unroll",
            f"claimed unroll {cert.regalloc.unroll}, lifetimes require "
            f"{unroll}",
        ))
        return
    span = unroll * ii
    full = (1 << span) - 1
    files = dict(cert.regalloc.registers_per_cluster)

    # Each lifetime owns one register slot per unroll instance; pack all
    # claimed intervals and demand zero collisions inside each register.
    needed = {}
    for producer, cluster, birth, death in expected:
        for instance in range(unroll):
            needed[(producer, cluster, instance)] = (
                (birth + instance * ii) % span,
                max(0, death - birth),
            )
    busy: Dict[Tuple[int, int], int] = {}
    seen = set()
    for entry in cert.regalloc.assignments:
        producer, cluster, instance, register, start_cycle, length = entry
        key = (producer, cluster, instance)
        shape = needed.get(key)
        if shape is None or key in seen:
            add(CertIssue(
                "CERT606", f"value {producer}.{instance} @C{cluster}",
                "assignment does not correspond to exactly one lifetime "
                "instance",
            ))
            continue
        seen.add(key)
        if (start_cycle, length) != shape:
            add(CertIssue(
                "CERT606", f"value {producer}.{instance} @C{cluster}",
                f"assignment interval ({start_cycle}, {length}) != "
                f"lifetime instance interval {shape}",
            ))
            continue
        if register < 0 or register >= files.get(cluster, 0):
            add(CertIssue(
                "CERT606", f"value {producer}.{instance} @C{cluster}",
                f"register r{register} outside cluster C{cluster}'s file "
                f"of {files.get(cluster, 0)}",
            ))
            continue
        block = ((1 << max(1, min(length, span))) - 1) << (start_cycle % span)
        mask = (block >> span) | (block & full)
        slot = (cluster, register)
        occupied = busy.get(slot, 0)
        if occupied & mask:
            add(CertIssue(
                "CERT606", f"value {producer}.{instance} @C{cluster}",
                f"overlapping lifetimes in register r{register} of "
                f"cluster C{cluster}",
            ))
        busy[slot] = occupied | mask
    for key in sorted(needed.keys() - seen):
        add(CertIssue(
            "CERT606", f"value {key[0]}.{key[2]} @C{key[1]}",
            "lifetime instance has no register assignment",
        ))
