"""Seeded-defect matrix: certify catches every broken compiled loop.

Each row plants one defect in a copy of compiled bundled-corpus loops
on the paper's bused 2-cluster machine (2gp) and on the 2x2 grid.  For
every row, :func:`repro.certify.gate.certify_compiled` must report at
least one error and must not raise.  Schedule-level rows must also be
flagged by :func:`repro.scheduling.check_schedule`, which runs
certify's assignment, timing and occupancy sections.

This matrix decided which checker a compiled loop needs.  The lint
rules that judged compiled loops (ASSIGN301-309, SCHED401-405/407/408,
REG501-505, DF703, DF705 and the CERT6xx bridge) caught only rows that
certify catches too, so certify is the one checker.  The same holds for
the structural check the annotated graph once ran on itself: each
defect it raised on is a row here (:data:`ANNOTATION_DEFECTS`).
"""

import dataclasses
from itertools import islice

import pytest

import repro.certify.emit as emit
from repro.certify.gate import artifact_diagnostics, certify_compiled
from repro.core import compile_loop
from repro.ddg import AnnotatedDdg, Ddg, Opcode
from repro.machine import four_cluster_grid, two_cluster_gp
from repro.mrt import ModuloReservationTable
from repro.regalloc.mve import allocate_mve
from repro.scheduling import Schedule, check_schedule
from repro.workloads import bundled_corpus

MACHINES = {"2gp": two_cluster_gp, "grid": four_cluster_grid}

#: Compiled loops per (row, machine) that receive the defect.
SAMPLES = 3


@pytest.fixture(scope="module")
def compiled_corpus():
    """Every bundled loop compiled once per machine, built on demand."""
    cache = {}

    def get(machine_name):
        if machine_name not in cache:
            machine = MACHINES[machine_name]()
            cache[machine_name] = [
                compile_loop(ddg, machine) for ddg in bundled_corpus()
            ]
        return cache[machine_name]

    return get


def _clone(compiled):
    """A compiled loop whose annotation and schedule may be mutated."""
    annotated = compiled.annotated
    clone = AnnotatedDdg(
        ddg=annotated.ddg,
        machine=annotated.machine,
        cluster_of=dict(annotated.cluster_of),
        copy_targets=dict(annotated.copy_targets),
        copy_value_of=dict(annotated.copy_value_of),
    )
    schedule = Schedule(
        annotated=clone,
        ii=compiled.schedule.ii,
        start=dict(compiled.schedule.start),
    )
    return dataclasses.replace(compiled, annotated=clone, schedule=schedule)


def _rebuilt_graph(graph, drop_edge=None):
    """A copy of ``graph`` (same node ids) without ``drop_edge``."""
    clone = Ddg(name=graph.name)
    for node in graph.nodes:
        clone.add_node(node.opcode, name=node.name, latency=node.latency)
    dropped = False
    for edge in graph.edges:
        if edge == drop_edge and not dropped:
            dropped = True
            continue
        clone.add_edge(edge.src, edge.dst, edge.distance)
    return clone


def _hosts(machine, node, exclude):
    """Clusters other than ``exclude`` that can execute ``node``."""
    return [
        cluster for cluster in machine.cluster_indices
        if cluster not in exclude
        and machine.cluster(cluster).issue_capacity(node.fu_class) > 0
    ]


def _first_copy(compiled):
    copies = compiled.annotated.copy_nodes
    return copies[0] if copies else None


# ----------------------------------------------------------------------
# Rows.  Each takes a compiled loop and returns a defective clone, or
# None when the loop cannot carry this defect.
# ----------------------------------------------------------------------
def start_shifted(compiled, monkeypatch):
    graph = compiled.annotated.ddg
    start = compiled.schedule.start
    ii = compiled.schedule.ii
    edges = [edge for edge in graph.edges if edge.src != edge.dst]
    if not edges:
        return None

    def slack(edge):
        return (
            start[edge.dst] + ii * edge.distance
            - start[edge.src] - graph.latency(edge.src)
        )

    tightest = min(edges, key=slack)
    mutated = _clone(compiled)
    mutated.schedule.start[tightest.dst] -= slack(tightest) + 1
    return mutated


def ii_minus_one(compiled, monkeypatch):
    # Only a loop at its proven minimum is wrong one cycle faster.
    if compiled.ii != compiled.mii or compiled.ii < 2:
        return None
    mutated = _clone(compiled)
    mutated.schedule.ii -= 1
    return dataclasses.replace(mutated, ii=mutated.schedule.ii)


def rows_collapsed(compiled, monkeypatch):
    annotated = compiled.annotated
    capacities = annotated.machine.resource_capacities()
    demand = {}
    for node_id in annotated.ddg.node_ids:
        for key in annotated.resources_of(node_id):
            demand[key] = demand.get(key, 0) + 1
    # Collapsing every op onto row 0 must overfill some pool.
    if all(uses <= capacities[key] for key, uses in demand.items()):
        return None
    ii = compiled.schedule.ii
    mutated = _clone(compiled)
    for node_id, cycle in mutated.schedule.start.items():
        mutated.schedule.start[node_id] = cycle - cycle % ii
    return mutated


def cluster_moved(compiled, monkeypatch):
    annotated = compiled.annotated
    graph = annotated.ddg
    for edge in graph.edges:
        src, dst = graph.node(edge.src), graph.node(edge.dst)
        home = annotated.cluster_of[edge.dst]
        if (
            src.is_copy or dst.is_copy or not src.produces_value
            or annotated.cluster_of[edge.src] != home
        ):
            continue
        hosts = _hosts(annotated.machine, dst, {home})
        if hosts:
            mutated = _clone(compiled)
            mutated.annotated.cluster_of[edge.dst] = hosts[0]
            return mutated
    return None


def cluster_out_of_range(compiled, monkeypatch):
    mutated = _clone(compiled)
    node_id = compiled.ddg.node_ids[0]
    mutated.annotated.cluster_of[node_id] = compiled.machine.n_clusters
    return mutated


def node_unassigned(compiled, monkeypatch):
    mutated = _clone(compiled)
    del mutated.annotated.cluster_of[compiled.ddg.node_ids[0]]
    return mutated


def copy_target_changed(compiled, monkeypatch):
    copy_id = _first_copy(compiled)
    if copy_id is None:
        return None
    annotated = compiled.annotated
    source = annotated.cluster_of[copy_id]
    (target,) = annotated.copy_targets[copy_id]
    # A hop the copy cannot make: the grid's diagonal, or on 2gp the
    # copy's own cluster.
    unreachable = [
        cluster for cluster in annotated.machine.cluster_indices
        if cluster not in (source, target)
        and not annotated.machine.interconnect.reachable(source, cluster)
    ]
    mutated = _clone(compiled)
    mutated.annotated.copy_targets[copy_id] = (
        unreachable[0] if unreachable else source,
    )
    return mutated


def copy_value_removed(compiled, monkeypatch):
    copy_id = _first_copy(compiled)
    if copy_id is None:
        return None
    mutated = _clone(compiled)
    del mutated.annotated.copy_value_of[copy_id]
    return mutated


def second_grid_target(compiled, monkeypatch):
    copy_id = _first_copy(compiled)
    if copy_id is None:
        return None
    annotated = compiled.annotated
    source = annotated.cluster_of[copy_id]
    (target,) = annotated.copy_targets[copy_id]
    extra = [
        cluster for cluster in annotated.machine.cluster_indices
        if cluster not in (source, target)
        and annotated.machine.interconnect.reachable(source, cluster)
    ]
    mutated = _clone(compiled)
    mutated.annotated.copy_targets[copy_id] = (target, extra[0])
    return mutated


def orphaned_copy(compiled, monkeypatch):
    """A declared, legally routed and scheduled copy nobody reads."""
    annotated = compiled.annotated
    machine = annotated.machine
    graph = annotated.ddg
    ii = compiled.schedule.ii
    table = ModuloReservationTable(machine, ii)
    for node_id, cycle in compiled.schedule.start.items():
        table.place(node_id, annotated.resources_of(node_id), cycle)
    for node in graph.nodes:
        if node.is_copy or not node.produces_value:
            continue
        home = annotated.cluster_of[node.node_id]
        for target in machine.cluster_indices:
            if target == home or not machine.interconnect.reachable(
                home, target
            ):
                continue
            profile = table.compile_demand(
                machine.copy_hop_resources(home, [target])
            )
            ready = compiled.schedule.start[node.node_id] + node.latency
            free = [
                cycle for cycle in range(ready, ready + ii)
                if table.probe(profile, cycle)
            ]
            if not free:
                continue
            mutated = _clone(compiled)
            mutated.annotated.ddg = _rebuilt_graph(graph)
            orphan = mutated.annotated.ddg.add_node(
                Opcode.COPY, name="orphan"
            )
            mutated.annotated.ddg.add_edge(node.node_id, orphan)
            mutated.schedule.start[orphan] = free[0]
            mutated.annotated.cluster_of[orphan] = home
            mutated.annotated.copy_targets[orphan] = (target,)
            mutated.annotated.copy_value_of[orphan] = node.node_id
            return mutated
    return None


def unfed_copy(compiled, monkeypatch):
    copy_id = _first_copy(compiled)
    if copy_id is None:
        return None
    graph = compiled.annotated.ddg
    (feed,) = graph.in_edges(copy_id)
    mutated = _clone(compiled)
    mutated.annotated.ddg = _rebuilt_graph(graph, drop_edge=feed)
    return mutated


def undelivered_consumer(compiled, monkeypatch):
    annotated = compiled.annotated
    graph = annotated.ddg
    for copy_id in annotated.copy_nodes:
        targets = annotated.copy_targets[copy_id]
        for edge in graph.out_edges(copy_id):
            consumer = graph.node(edge.dst)
            if consumer.is_copy:
                continue
            hosts = _hosts(annotated.machine, consumer, set(targets))
            if hosts:
                mutated = _clone(compiled)
                mutated.annotated.cluster_of[edge.dst] = hosts[0]
                return mutated
    return None


def _corrupt_allocator(monkeypatch, corrupt):
    def allocate(schedule, lifetimes=None):
        return corrupt(allocate_mve(schedule, lifetimes))

    monkeypatch.setattr(emit, "allocate_mve", allocate)


def overlapping_registers(compiled, monkeypatch):
    allocation = allocate_mve(compiled.schedule)
    # First fit opens a second register only for a lifetime that
    # collides with the first, so folding r1 onto r0 must overlap.
    if not any(n >= 2 for n in allocation.registers_per_cluster.values()):
        return None

    def corrupt(allocation):
        allocation.assignments = [
            entry._replace(register=0) if entry.register == 1 else entry
            for entry in allocation.assignments
        ]
        return allocation

    _corrupt_allocator(monkeypatch, corrupt)
    return _clone(compiled)


def under_unrolled(compiled, monkeypatch):
    if allocate_mve(compiled.schedule).unroll < 2:
        return None

    def corrupt(allocation):
        allocation.unroll -= 1
        return allocation

    _corrupt_allocator(monkeypatch, corrupt)
    return _clone(compiled)


#: name -> (mutation, machines it applies to, schedule-level?)
ROWS = {
    "start-shifted": (start_shifted, ("2gp", "grid"), True),
    "ii-minus-one": (ii_minus_one, ("2gp", "grid"), True),
    "rows-collapsed": (rows_collapsed, ("2gp", "grid"), True),
    "cluster-moved": (cluster_moved, ("2gp", "grid"), True),
    "cluster-out-of-range": (cluster_out_of_range, ("2gp", "grid"), True),
    "node-unassigned": (node_unassigned, ("2gp", "grid"), True),
    "copy-target-changed": (copy_target_changed, ("2gp", "grid"), True),
    "copy-value-removed": (copy_value_removed, ("2gp", "grid"), False),
    "second-grid-target": (second_grid_target, ("grid",), True),
    "orphaned-copy": (orphaned_copy, ("2gp", "grid"), False),
    "unfed-copy": (unfed_copy, ("2gp", "grid"), False),
    "undelivered-consumer": (undelivered_consumer, ("2gp", "grid"), True),
    "overlapping-registers": (overlapping_registers, ("2gp", "grid"), False),
    "under-unrolled": (under_unrolled, ("2gp", "grid"), False),
}

CASES = [
    pytest.param(row, machine, id=f"{row}-{machine}")
    for row, (_, machines, _) in ROWS.items()
    for machine in machines
]

#: Each defect of an annotated graph the kernel-graph structural check
#: raised on -> (the row that plants it, per machine a fragment of the
#: CERT603 message that reports it).  On 2gp every pair of distinct
#: clusters is one bus hop apart, so its unconnected hop is a copy
#: onto its own cluster.
ANNOTATION_DEFECTS = {
    "copy-feeds-untargeted-cluster": (
        "undelivered-consumer",
        {"2gp": "copy feeds cluster", "grid": "copy feeds cluster"},
    ),
    "uncopied-cross-cluster-value": (
        "cluster-moved",
        {"2gp": "without a copy", "grid": "without a copy"},
    ),
    "copy-hop-not-connected": (
        "copy-target-changed",
        {"2gp": "clusters coincide", "grid": "is not one hop from"},
    ),
}


@pytest.mark.parametrize("row, machine", CASES)
def test_certify_reports_every_defect(
    row, machine, compiled_corpus, monkeypatch
):
    mutate, _, schedule_level = ROWS[row]
    defective = list(islice(
        (
            mutated for mutated in (
                mutate(compiled, monkeypatch)
                for compiled in compiled_corpus(machine)
            )
            if mutated is not None
        ),
        SAMPLES,
    ))
    assert defective, f"no bundled loop can carry {row} on {machine}"
    for loop in defective:
        name = loop.ddg.name
        artifact = certify_compiled(loop)
        errors = [d for d in artifact_diagnostics(artifact) if d.is_error]
        assert errors, f"certify missed {row} in {name} on {machine}"
        if schedule_level:
            assert check_schedule(loop.schedule), (
                f"check_schedule missed {row} in {name} on {machine}"
            )


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("defect", sorted(ANNOTATION_DEFECTS))
def test_rows_cover_annotation_defects(
    defect, machine, compiled_corpus, monkeypatch
):
    row, fragments = ANNOTATION_DEFECTS[defect]
    mutate = ROWS[row][0]
    defective = list(islice(
        (
            mutated for mutated in (
                mutate(compiled, monkeypatch)
                for compiled in compiled_corpus(machine)
            )
            if mutated is not None
        ),
        SAMPLES,
    ))
    assert defective, f"no bundled loop can carry {row} on {machine}"
    for loop in defective:
        messages = [
            issue.message for issue in check_schedule(loop.schedule)
            if issue.code == "CERT603"
        ]
        assert any(fragments[machine] in m for m in messages), (
            f"{row} in {loop.ddg.name} on {machine}: {messages}"
        )
