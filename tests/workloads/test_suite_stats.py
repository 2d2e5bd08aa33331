"""Suite assembly and Table 1 statistics calibration."""

import pytest

from repro.workloads import (
    PAPER_SUITE_SIZE,
    all_kernels,
    generate_suite,
    paper_suite,
    suite_statistics,
)

#: Paper Table 1 values with reproduction tolerance bands.
TABLE1 = {
    "nodes": dict(minimum=2, average=17.5, maximum=161),
    "sccs": dict(minimum=0, average=0.4, maximum=6),
    "scc_nodes": dict(minimum=2, average=9.0, maximum=48),
    "edges": dict(minimum=1, average=22.5, maximum=232),
}


@pytest.fixture(scope="module")
def full_suite():
    return paper_suite(PAPER_SUITE_SIZE)


@pytest.fixture(scope="module")
def full_stats(full_suite):
    return suite_statistics(full_suite)


class TestSuiteAssembly:
    def test_full_size(self, full_suite):
        assert len(full_suite) == 1327

    def test_kernels_lead_the_suite(self, full_suite):
        kernel_names = [g.name for g in all_kernels()]
        assert [g.name for g in full_suite[: len(kernel_names)]] == (
            kernel_names
        )

    def test_small_suite_truncates_kernels(self):
        suite = paper_suite(5)
        assert len(suite) == 5

    def test_without_kernels(self):
        suite = generate_suite(50)
        assert all(g.name.startswith("synth") for g in suite)

    def test_deterministic(self):
        first = paper_suite(100)
        second = paper_suite(100)
        assert [len(g) for g in first] == [len(g) for g in second]

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            paper_suite(0)


class TestTable1Calibration:
    """The synthetic population matches the paper's published statistics
    within tolerance (exact match is impossible: the original loops are
    proprietary)."""

    def test_node_statistics(self, full_stats):
        row = full_stats.nodes
        assert row.minimum == TABLE1["nodes"]["minimum"]
        assert row.average == pytest.approx(17.5, rel=0.10)
        assert row.maximum >= 120  # paper max 161, log-normal tail

    def test_scc_count_statistics(self, full_stats):
        row = full_stats.sccs_per_loop
        assert row.minimum == 0
        assert row.average == pytest.approx(0.4, rel=0.25)
        assert row.maximum <= 6

    def test_scc_node_statistics(self, full_stats):
        row = full_stats.scc_nodes
        assert row.minimum == 2
        assert row.average == pytest.approx(9.0, rel=0.25)
        assert row.maximum <= 48

    def test_edge_statistics(self, full_stats):
        row = full_stats.edges
        assert row.minimum == 1
        assert row.average == pytest.approx(22.5, rel=0.10)
        assert row.maximum <= 232

    def test_scc_loop_count_near_paper(self, full_stats):
        # Paper: 301 of 1327 loops contain SCCs.
        assert 240 <= full_stats.n_loops_with_sccs <= 360


class TestFormatting:
    def test_format_table_mentions_all_rows(self, full_stats):
        text = full_stats.format_table()
        assert "Nodes" in text
        assert "SCCs per loop" in text
        assert "Edges" in text
        assert "1327 loops" in text

    def test_empty_suite_statistics(self):
        stats = suite_statistics([])
        assert stats.n_loops == 0
        assert stats.nodes.average == 0.0
