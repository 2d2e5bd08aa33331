"""The independent checker: clean compiles verify, forgeries do not.

The seeded-defect classes mirror the acceptance criteria: one forgery
per certificate kind (RecMII cycle, copy route, occupancy slot,
lifetime interval) must be caught, and the full bundled corpus must
verify with zero issues on both preset machines.
"""

import dataclasses

import pytest

from repro.certify import emit_certificate
from repro.certify.check import CertIssue, check_certificate
from repro.core import compile_loop
from repro.machine import four_cluster_grid, two_cluster_gp
from repro.workloads import build_kernel, bundled_corpus


def codes(issues):
    return {issue.code for issue in issues}


class TestCleanCompiles:
    def test_intro_example_verifies(self, compiled_intro):
        cert = emit_certificate(compiled_intro)
        assert check_certificate(
            cert, compiled_intro.ddg, compiled_intro.machine
        ) == []

    def test_acyclic_loop_verifies(self, compiled_chain):
        cert = emit_certificate(compiled_chain)
        assert check_certificate(
            cert, compiled_chain.ddg, compiled_chain.machine
        ) == []

    def test_every_machine_verifies(
        self, intro_example, any_clustered_machine
    ):
        compiled = compile_loop(intro_example, any_clustered_machine)
        cert = emit_certificate(compiled)
        assert check_certificate(
            cert, intro_example, any_clustered_machine
        ) == []

    @pytest.mark.parametrize(
        "machine_factory", [two_cluster_gp, four_cluster_grid],
        ids=["2gp", "grid"],
    )
    def test_bundled_corpus_verifies(self, machine_factory):
        machine = machine_factory()
        for ddg in bundled_corpus():
            compiled = compile_loop(ddg, machine)
            cert = emit_certificate(compiled)
            issues = check_certificate(cert, ddg, machine)
            assert issues == [], f"{ddg.name}: {issues[:3]}"


class TestSeededDefects:
    """Each forgery class must be caught by its checker section."""

    def test_forged_recmii_value(self, compiled_intro):
        cert = emit_certificate(compiled_intro)
        forged = dataclasses.replace(
            cert,
            recmii=dataclasses.replace(
                cert.recmii, value=cert.recmii.value + 1
            ),
        )
        issues = check_certificate(
            forged, compiled_intro.ddg, compiled_intro.machine
        )
        assert "CERT601" in codes(issues)

    def test_forged_recmii_cycle_edge(self, compiled_intro):
        cert = emit_certificate(compiled_intro)
        # Point the first cycle edge at a dependence that does not
        # exist in the graph.
        src, dst, latency, distance = cert.recmii.cycle[0]
        fake = ((src, dst, latency, distance + 7),) + cert.recmii.cycle[1:]
        forged = dataclasses.replace(
            cert, recmii=dataclasses.replace(cert.recmii, cycle=fake)
        )
        issues = check_certificate(
            forged, compiled_intro.ddg, compiled_intro.machine
        )
        assert "CERT601" in codes(issues)

    def test_forged_resmii_count(self, compiled_intro):
        cert = emit_certificate(compiled_intro)
        pool, uses, capacity = cert.resmii.demand[0]
        forged = dataclasses.replace(
            cert,
            resmii=dataclasses.replace(
                cert.resmii, demand=((pool, uses + 1, capacity),)
                + cert.resmii.demand[1:],
            ),
        )
        issues = check_certificate(
            forged, compiled_intro.ddg, compiled_intro.machine
        )
        assert "CERT602" in codes(issues)

    @pytest.mark.parametrize("table", ["resmii", "sched_resources"])
    def test_count_forgery_names_pool_and_counts(self, two_gp, table):
        # One count off: the message names the pool and both sides'
        # (uses, capacity), not just the pool names both sides share.
        ddg = build_kernel("lk1_hydro")
        cert = emit_certificate(compile_loop(ddg, two_gp))
        witness = getattr(cert, table)
        pool, uses, capacity = witness.demand[0]
        forged = dataclasses.replace(cert, **{table: dataclasses.replace(
            witness,
            demand=((pool, uses + 1, capacity),) + witness.demand[1:],
        )})
        issues = check_certificate(forged, ddg, two_gp)
        assert [
            issue.message for issue in issues if issue.location == table
        ] == [
            "counting evidence does not match the machine's recount: "
            f"{pool}: witness ({uses + 1}, {capacity}), "
            f"recount ({uses}, {capacity})"
        ]

    def test_illegal_copy_route(self, two_gp):
        # Find a corpus loop whose compile inserts at least one copy,
        # then teleport a copy's source cluster so its witnessed route
        # becomes illegal.
        for ddg in bundled_corpus():
            compiled = compile_loop(ddg, two_gp)
            if compiled.copy_count:
                break
        else:  # pragma: no cover - corpus always has copies
            pytest.fail("no corpus loop with copies")
        cert = emit_certificate(compiled)
        copy = cert.assignment.copies[0]
        moved = dataclasses.replace(
            copy, src_cluster=(copy.src_cluster + 1) % 2
        )
        forged = dataclasses.replace(
            cert,
            assignment=dataclasses.replace(
                cert.assignment,
                copies=(moved,) + cert.assignment.copies[1:],
            ),
        )
        issues = check_certificate(forged, ddg, two_gp)
        assert "CERT603" in codes(issues)

    def test_copy_hop_off_the_fabric(self, grid):
        # Retarget a copy at the cluster its source has no link to (the
        # grid's diagonal).  The emitter refuses to witness such a copy,
        # so only a forged certificate reaches the checker's hop check.
        ddg = build_kernel("lk1_hydro")
        cert = emit_certificate(compile_loop(ddg, grid))
        copy = cert.assignment.copies[0]
        (diagonal,) = [
            cluster for cluster in grid.cluster_indices
            if cluster != copy.src_cluster
            and not grid.interconnect.reachable(copy.src_cluster, cluster)
        ]
        forged = dataclasses.replace(
            cert,
            assignment=dataclasses.replace(
                cert.assignment,
                copies=(dataclasses.replace(copy, targets=(diagonal,)),)
                + cert.assignment.copies[1:],
            ),
        )
        issues = check_certificate(forged, ddg, grid)
        assert CertIssue(
            "CERT603", f"copy {copy.copy_id}",
            f"hop {copy.src_cluster}->{diagonal} is not legal on this "
            f"interconnect",
        ) in issues
        # The recounts leave the refused copy out and finish: every
        # other op and copy is still checked.
        assert not [
            issue for issue in issues if "section aborted" in issue.message
        ]

    def test_tampered_cluster_assignment(self, compiled_intro):
        cert = emit_certificate(compiled_intro)
        pairs = cert.assignment.cluster_of
        node, cluster = pairs[0]
        forged = dataclasses.replace(
            cert,
            assignment=dataclasses.replace(
                cert.assignment,
                cluster_of=((node, (cluster + 1) % 2),) + pairs[1:],
            ),
        )
        issues = check_certificate(
            forged, compiled_intro.ddg, compiled_intro.machine
        )
        assert issues, "moving a node across clusters must be caught"

    def test_double_booked_slot(self, two_gp):
        # Collapse every start cycle onto row 0: with more ops than
        # one row's capacity the recount must report a double-booked
        # slot (the slack/occupancy witnesses also stop matching).
        for ddg in bundled_corpus():
            compiled = compile_loop(ddg, two_gp)
            if len(ddg) > 8 and compiled.ii >= 2:
                break
        else:  # pragma: no cover
            pytest.fail("no corpus loop large enough")
        cert = emit_certificate(compiled)
        flat = tuple(
            (node, 0) for node, _ in cert.schedule.start
        )
        forged = dataclasses.replace(
            cert,
            schedule=dataclasses.replace(cert.schedule, start=flat),
        )
        issues = check_certificate(forged, ddg, two_gp)
        assert "CERT605" in codes(issues)
        assert any(
            "double-booked" in issue.message
            for issue in issues if issue.code == "CERT605"
        )

    def test_negative_slack_is_caught(self, compiled_intro):
        cert = emit_certificate(compiled_intro)
        # Swap two distinct start cycles without touching the slack
        # witnesses: the timing section must notice.
        start = dict(cert.schedule.start)
        a, b = sorted(start)[:2]
        start[a], start[b] = start[b], start[a]
        forged = dataclasses.replace(
            cert,
            schedule=dataclasses.replace(
                cert.schedule, start=tuple(sorted(start.items()))
            ),
        )
        issues = check_certificate(
            forged, compiled_intro.ddg, compiled_intro.machine
        )
        assert "CERT604" in codes(issues)

    def test_overlapping_lifetime(self, two_gp):
        # Force two register assignments onto the same register of the
        # same cluster: the bitmask overlap check must fire (or the
        # assignment stops matching its lifetime instance).
        for ddg in bundled_corpus():
            compiled = compile_loop(ddg, two_gp)
            cert = emit_certificate(compiled)
            per_cluster = {}
            for entry in cert.regalloc.assignments:
                producer, cluster, inst, reg, start, length = entry
                if length == 0:
                    continue
                per_cluster.setdefault(cluster, []).append(entry)
            pair = next(
                (
                    entries for entries in per_cluster.values()
                    if len(entries) >= 2
                ),
                None,
            )
            if pair is not None:
                break
        else:  # pragma: no cover
            pytest.fail("no loop with two live values on one cluster")
        first, second = pair[0], pair[1]
        # Move the second assignment onto the first's register and
        # start cycle so their intervals collide.
        clash = (
            second[0], second[1], second[2], first[3], first[4],
            max(first[5], second[5]),
        )
        assignments = tuple(
            clash if entry == second else entry
            for entry in cert.regalloc.assignments
        )
        forged = dataclasses.replace(
            cert,
            regalloc=dataclasses.replace(
                cert.regalloc, assignments=assignments
            ),
        )
        issues = check_certificate(forged, ddg, two_gp)
        assert "CERT606" in codes(issues)

    def test_orphaned_copy(self, two_gp):
        # A declared copy that feeds no edge: fed, routed and resourced
        # correctly, yet nothing ever reads what it transfers.
        for ddg in bundled_corpus():
            compiled = compile_loop(ddg, two_gp)
            if compiled.copy_count:
                break
        else:  # pragma: no cover - corpus always has copies
            pytest.fail("no corpus loop with copies")
        cert = emit_certificate(compiled)
        copy = cert.assignment.copies[0]
        forged = dataclasses.replace(
            cert,
            graph=dataclasses.replace(
                cert.graph,
                edges=tuple(
                    edge for edge in cert.graph.edges
                    if edge[0] != copy.copy_id
                ),
            ),
        )
        issues = check_certificate(forged, ddg, two_gp)
        assert any(
            issue.code == "CERT600" and "orphaned copy" in issue.message
            and issue.location == f"copy {copy.copy_id}"
            for issue in issues
        )

    def test_copy_read_on_its_own_cluster(self, two_gp):
        # A consumer moved onto the copy's source cluster reads a
        # register the copy never writes.
        for ddg in bundled_corpus():
            compiled = compile_loop(ddg, two_gp)
            cert = emit_certificate(compiled)
            copies = {c.copy_id: c for c in cert.assignment.copies}
            feed = next(
                (
                    (src, dst) for src, dst, _ in cert.graph.edges
                    if src in copies and dst not in copies
                ),
                None,
            )
            if feed is not None:
                break
        else:  # pragma: no cover - corpus always has copies
            pytest.fail("no corpus loop with copies")
        copy, consumer = copies[feed[0]], feed[1]
        cluster_of = dict(cert.assignment.cluster_of)
        cluster_of[consumer] = copy.src_cluster
        forged = dataclasses.replace(
            cert,
            assignment=dataclasses.replace(
                cert.assignment,
                cluster_of=tuple(sorted(cluster_of.items())),
            ),
        )
        issues = check_certificate(forged, ddg, two_gp)
        assert any(
            issue.code == "CERT603"
            and issue.location == f"edge {copy.copy_id}->{consumer}"
            for issue in issues
        )

    def test_dropped_dependence(self, compiled_intro):
        cert = emit_certificate(compiled_intro)
        forged = dataclasses.replace(
            cert,
            graph=dataclasses.replace(
                cert.graph, edges=cert.graph.edges[1:]
            ),
        )
        issues = check_certificate(
            forged, compiled_intro.ddg, compiled_intro.machine
        )
        assert "CERT600" in codes(issues)

    def test_malformed_section_is_contained(self, compiled_intro):
        cert = emit_certificate(compiled_intro)
        forged = dataclasses.replace(
            cert,
            regalloc=dataclasses.replace(
                cert.regalloc, lifetimes=(("garbage",),)
            ),
        )
        issues = check_certificate(
            forged, compiled_intro.ddg, compiled_intro.machine
        )
        assert "CERT606" in codes(issues)
        assert all(
            issue.code.startswith("CERT") for issue in issues
        )
