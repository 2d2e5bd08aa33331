"""The paper's Section 3 worked example, end to end.

The introductory example assigns a 6-op loop with one SCC onto a
hypothetical 2-cluster machine.  The paper derives RecMII = 4,
ResMII = 3, MII = 4 for a 2-wide unified machine, shows a naive bottom-up
assignment failing, and shows the SCC-first + copy-prediction assignment
succeeding at II = 4.  We verify every derived quantity and reproduce the
success on the hypothetical machine (one GP unit per cluster, two buses —
copies modelled on ports as in the experimental sections).
"""

import pytest

from repro.core import assign_clusters, compile_loop
from repro.ddg import find_sccs, mii, rec_mii, res_mii
from repro.machine import bused_machine, gp_units, unified_gp
from repro.scheduling import assert_valid, modulo_schedule


@pytest.fixture
def toy_machine():
    """The Section 3 machine: 2 clusters x 1 GP unit, 2 buses, 1 port."""
    return bused_machine(2, gp_units(1), buses=2, ports=1, name="toy")


class TestDerivedQuantities:
    def test_rec_mii_is_four(self, intro_example):
        assert rec_mii(intro_example) == 4

    def test_res_mii_is_three_on_two_wide(self, intro_example):
        assert res_mii(intro_example, unified_gp(2)) == 3

    def test_mii_is_four(self, intro_example):
        assert mii(intro_example, unified_gp(2)) == 4

    def test_scc_is_b_c_d(self, intro_example):
        partition = find_sccs(intro_example)
        assert len(partition) == 1
        assert partition.sccs[0].nodes == set(intro_example.node_ids[1:4])


class TestApproachTwo:
    """SCC-first + predicted copy use succeeds at II = 4 (Section 3.2)."""

    def test_assignment_succeeds_at_mii(
        self, intro_example, toy_machine, annotation_issues
    ):
        annotated = assign_clusters(intro_example, toy_machine, ii=4)
        assert annotated is not None
        assert annotation_issues(annotated) == []

    def test_scc_not_split(self, intro_example, toy_machine):
        annotated = assign_clusters(intro_example, toy_machine, ii=4)
        scc = intro_example.node_ids[1:4]
        clusters = {annotated.cluster_of[n] for n in scc}
        assert len(clusters) == 1

    def test_schedule_matches_unified_ii(self, intro_example, toy_machine):
        result = compile_loop(intro_example, toy_machine, verify=True)
        unified = compile_loop(
            intro_example, toy_machine.unified_equivalent(), verify=True
        )
        assert unified.ii == 4
        assert result.ii == 4  # all communication hidden

    def test_final_schedule_is_valid(self, intro_example, toy_machine):
        annotated = assign_clusters(intro_example, toy_machine, ii=4)
        schedule = modulo_schedule(annotated, ii=4)
        assert schedule is not None
        assert_valid(schedule)

    def test_loop_splits_across_both_clusters(
        self, intro_example, toy_machine
    ):
        """6 ops at II 4 cannot fit one 1-wide cluster (4 slots): the
        assignment must use both, exactly as the paper's Figure 8."""
        annotated = assign_clusters(intro_example, toy_machine, ii=4)
        clusters = {
            annotated.cluster_of[n] for n in intro_example.node_ids
        }
        assert clusters == {0, 1}
