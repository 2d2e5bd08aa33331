"""Counting resource pools (assignment-phase MRT)."""

import pytest

from repro.mrt import PoolOverflowError, ResourcePools
from repro.machine import four_cluster_grid, unified_gp


@pytest.fixture
def pools(two_gp):
    """Pools of the 2-cluster GP machine at II = 3."""
    return ResourcePools(two_gp, ii=3)


class TestCapacities:
    def test_capacity_scales_with_ii(self, pools):
        assert pools.capacity(("issue", 0, "gp")) == 4 * 3
        assert pools.capacity("bus") == 2 * 3
        assert pools.capacity(("rd", 0)) == 1 * 3

    def test_ii_must_be_positive(self, two_gp):
        with pytest.raises(ValueError):
            ResourcePools(two_gp, ii=0)

    def test_initially_all_free(self, pools):
        for key in pools.keys():
            assert pools.used(key) == 0
            assert pools.free(key) == pools.capacity(key)


class TestReserveRelease:
    def test_reserve_decrements_free(self, pools):
        pools.reserve([("issue", 0, "gp")])
        assert pools.used(("issue", 0, "gp")) == 1
        assert pools.free(("issue", 0, "gp")) == 11

    def test_reserve_repeated_key_in_one_call(self, pools):
        pools.reserve([("rd", 0), ("rd", 0), ("rd", 0)])
        assert pools.used(("rd", 0)) == 3

    def test_overflow_raises_and_preserves_state(self, pools):
        pools.reserve([("rd", 0)] * 3)  # capacity exactly 3
        with pytest.raises(PoolOverflowError):
            pools.reserve([("rd", 0)])
        assert pools.used(("rd", 0)) == 3

    def test_overflow_from_repetition_detected(self, pools):
        with pytest.raises(PoolOverflowError):
            pools.reserve([("rd", 0)] * 4)
        assert pools.used(("rd", 0)) == 0  # nothing leaked

    def test_release_returns_capacity(self, pools):
        pools.reserve(["bus", "bus"])
        pools.release(["bus"])
        assert pools.used("bus") == 1

    def test_release_unreserved_raises(self, pools):
        with pytest.raises(ValueError):
            pools.release(["bus"])

    def test_can_reserve_counts_repetitions(self, pools):
        assert pools.can_reserve([("rd", 0)] * 3)
        assert not pools.can_reserve([("rd", 0)] * 4)


class TestScratchCopy:
    def test_copy_is_isolated_from_later_changes(self, pools):
        pools.reserve([("issue", 1, "gp")])
        scratch = pools.copy()
        scratch.reserve(["bus", ("rd", 0)])
        pools.reserve(["bus"])
        assert (pools.used("bus"), pools.used(("rd", 0))) == (1, 0)
        assert (scratch.used("bus"), scratch.used(("rd", 0))) == (1, 1)
        assert scratch.used(("issue", 1, "gp")) == 1
        assert scratch.capacity("bus") == pools.capacity("bus")


class TestClusterSummaries:
    def test_free_issue_slots(self, pools):
        assert pools.free_issue_slots(0) == 12
        pools.reserve([("issue", 0, "gp")] * 5)
        assert pools.free_issue_slots(0) == 7

    def test_free_cluster_slots_includes_ports(self, pools):
        # 12 issue + 3 rd + 3 wr.
        assert pools.free_cluster_slots(0) == 18

    def test_unified_cluster_slots_exclude_ports(self):
        pools = ResourcePools(unified_gp(8), ii=2)
        assert pools.free_cluster_slots(0) == 16

    def test_max_reservable_copies_bused(self, pools):
        # min(free rd = 3, free bus = 6) = 3.
        assert pools.max_reservable_copies(0) == 3
        pools.reserve(["bus"] * 5)
        assert pools.max_reservable_copies(0) == 1

    def test_max_reservable_copies_unified_is_zero(self):
        pools = ResourcePools(unified_gp(8), ii=4)
        assert pools.max_reservable_copies(0) == 0

    def test_grid_channel_slots_sum_incident_links(self):
        pools = ResourcePools(four_cluster_grid(), ii=2)
        # Cluster 0 touches links (0,1) and (0,2): 2 links x II 2 = 4.
        assert pools.free_channel_slots_from(0) == 4
        pools.reserve([("link", 0, 1)])
        assert pools.free_channel_slots_from(0) == 3

    def test_grid_max_reservable_copies_port_bound(self):
        pools = ResourcePools(four_cluster_grid(), ii=2)
        # rd ports: 2 per cluster x II 2 = 4; links from 0: 4 -> min = 4.
        assert pools.max_reservable_copies(0) == 4
