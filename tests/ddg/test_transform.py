"""Annotated DDGs: cluster tags, copy metadata, and certify's verdict
on their structure (CERT603)."""

import pytest

from repro.ddg import AnnotatedDdg, Ddg, Opcode, build_ddg, trivial_annotation
from repro.machine import two_cluster_gp, unified_gp


def _two_cluster_annotated(chain3):
    """A chain3-shaped graph split across the two clusters: the direct
    mul -> st edge is replaced by mul -> copy -> st."""
    machine = two_cluster_gp()
    graph = Ddg(name="chain3-split")
    ld = graph.add_node(Opcode.LOAD, name="ld")
    mul = graph.add_node(Opcode.FP_MULT, name="mul")
    st = graph.add_node(Opcode.STORE, name="st")
    cp = graph.add_node(Opcode.COPY, name="cp")
    graph.add_edge(ld, mul, distance=0)
    graph.add_edge(mul, cp, distance=0)
    graph.add_edge(cp, st, distance=0)
    return AnnotatedDdg(
        ddg=graph,
        machine=machine,
        cluster_of={ld: 0, mul: 0, st: 1, cp: 0},
        copy_targets={cp: (1,)},
        copy_value_of={cp: mul},
    )


class TestTrivialAnnotation:
    def test_everything_on_cluster_zero(self, chain3):
        annotated = trivial_annotation(chain3, unified_gp(4))
        assert set(annotated.cluster_of.values()) == {0}
        assert annotated.copy_count == 0

    def test_requires_unified_machine(self, chain3):
        with pytest.raises(ValueError):
            trivial_annotation(chain3, two_cluster_gp())


class TestResources:
    def test_op_resources_are_issue_slots(self, chain3):
        annotated = trivial_annotation(chain3, unified_gp(4))
        assert annotated.resources_of(0) == [("issue", 0, "gp")]

    def test_copy_resources_include_ports_and_bus(self, chain3):
        annotated = _two_cluster_annotated(chain3)
        cp = annotated.copy_nodes[0]
        resources = annotated.resources_of(cp)
        assert ("rd", 0) in resources
        assert ("wr", 1) in resources
        assert "bus" in resources


class TestValidation:
    def test_missing_cluster_assignment_rejected(self, chain3):
        with pytest.raises(ValueError):
            AnnotatedDdg(
                ddg=chain3,
                machine=unified_gp(4),
                cluster_of={0: 0, 1: 0},  # node 2 missing
            )

    def test_copy_targets_must_reference_copies(self, chain3):
        with pytest.raises(ValueError):
            AnnotatedDdg(
                ddg=chain3,
                machine=unified_gp(4),
                cluster_of={0: 0, 1: 0, 2: 0},
                copy_targets={0: (1,)},  # node 0 is a load
            )

    def test_valid_split_graph_passes(self, chain3, annotation_issues):
        annotated = _two_cluster_annotated(chain3)
        assert annotation_issues(annotated) == []

    def test_uncopied_cross_cluster_value_edge_rejected(
        self, chain3, annotation_issues
    ):
        machine = two_cluster_gp()
        annotated = AnnotatedDdg(
            ddg=chain3,
            machine=machine,
            cluster_of={0: 0, 1: 1, 2: 1},  # load on C0 feeds mult on C1
        )
        (issue,) = annotation_issues(annotated)
        assert issue.location == "edge 0->1"
        assert "without a copy" in issue.message

    def test_memory_ordering_edge_crosses_freely(self, annotation_issues):
        graph = build_ddg(
            ops=[("st", Opcode.STORE), ("ld", Opcode.LOAD)],
            deps=[("st", "ld", 1)],  # loop-carried memory dependence
        )
        annotated = AnnotatedDdg(
            ddg=graph,
            machine=two_cluster_gp(),
            cluster_of={0: 0, 1: 1},
        )
        # Stores produce no value: no copy needed.
        assert annotation_issues(annotated) == []

    def test_copy_feeding_untargeted_cluster_rejected(
        self, chain3, annotation_issues
    ):
        annotated = _two_cluster_annotated(chain3)
        # Corrupt: move the copy's consumer to the copy's own cluster,
        # which the copy does not write.
        annotated.cluster_of[2] = 0
        (issue,) = annotation_issues(annotated)
        assert issue.location == "edge 3->2"
        assert "copy feeds cluster 0 but only targets [1]" in issue.message


class TestCopyMetadata:
    def test_copy_nodes_and_count(self, chain3):
        annotated = _two_cluster_annotated(chain3)
        assert annotated.copy_count == 1
        assert len(annotated.copy_nodes) == 1

    def test_copy_value_of_tracks_producer(self, chain3):
        annotated = _two_cluster_annotated(chain3)
        cp = annotated.copy_nodes[0]
        assert annotated.copy_value_of[cp] == 1  # the multiply
