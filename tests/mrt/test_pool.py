"""Counting resource pools (assignment-phase MRT)."""

import pytest

from repro.mrt import PoolOverflowError, ResourcePools
from repro.machine import four_cluster_grid, unified_gp

ISSUE0 = ("issue", 0, "gp")
RD0 = ("rd", 0)


@pytest.fixture
def pools(two_gp):
    """Pools of the 2-cluster GP machine at II = 3."""
    return ResourcePools(two_gp, ii=3)


def demand(pools, key, count=1):
    """``count`` slots of ``key`` as a demand vector."""
    return pools.table.demand([key] * count)


def free(pools, key):
    """Free slots of ``key``: the largest demand of it that fits."""
    count = 0
    while pools.fits(demand(pools, key, count + 1)):
        count += 1
    return count


class TestCapacities:
    def test_capacity_scales_with_ii(self, pools):
        assert free(pools, ISSUE0) == 4 * 3
        assert free(pools, "bus") == 2 * 3
        assert free(pools, RD0) == 1 * 3

    def test_ii_must_be_positive(self, two_gp):
        with pytest.raises(ValueError):
            ResourcePools(two_gp, ii=0)

    def test_initially_all_free(self, pools):
        table = pools.table
        for key, per_cycle in zip(table.keys, table.per_cycle):
            assert free(pools, key) == per_cycle * 3


class TestReserveRelease:
    def test_reserve_decrements_free(self, pools):
        assert pools.take(demand(pools, ISSUE0))
        assert free(pools, ISSUE0) == 11

    def test_reserve_repeated_key_in_one_call(self, pools):
        assert pools.take(pools.table.demand([RD0, RD0, RD0]))
        assert free(pools, RD0) == 0

    def test_overflow_raises_and_preserves_state(self, pools):
        assert pools.take(demand(pools, RD0, 3))  # capacity exactly 3
        assert not pools.take(demand(pools, RD0))
        error = pools.overflow_error(demand(pools, RD0))
        assert isinstance(error, PoolOverflowError)
        assert (error.key, error.capacity) == (RD0, 3)
        pools.give(demand(pools, RD0, 3))
        assert free(pools, RD0) == 3

    def test_overflow_from_repetition_detected(self, pools):
        assert not pools.take(demand(pools, RD0, 4))
        assert free(pools, RD0) == 3  # nothing leaked

    def test_release_returns_capacity(self, pools):
        assert pools.take(demand(pools, "bus", 2))
        pools.give(demand(pools, "bus"))
        assert free(pools, "bus") == 5

    def test_can_reserve_counts_repetitions(self, pools):
        assert pools.fits(demand(pools, RD0, 3))
        assert not pools.fits(demand(pools, RD0, 4))


class TestScratchCopy:
    def test_copy_is_isolated_from_later_changes(self, pools):
        assert pools.take(demand(pools, ("issue", 1, "gp")))
        scratch = pools.copy()
        assert scratch.take(pools.table.demand(["bus", RD0]))
        assert pools.take(demand(pools, "bus"))
        assert (free(pools, "bus"), free(pools, RD0)) == (5, 3)
        assert (free(scratch, "bus"), free(scratch, RD0)) == (5, 2)
        assert free(scratch, ("issue", 1, "gp")) == 11


class TestClusterSummaries:
    def test_free_issue_slots(self, pools):
        # Issue slots count among the cluster's free slots.
        assert pools.free_cluster_slots(0) == 18
        assert pools.take(demand(pools, ISSUE0, 5))
        assert pools.free_cluster_slots(0) == 13

    def test_free_cluster_slots_includes_ports(self, pools):
        # 12 issue + 3 rd + 3 wr.
        assert pools.free_cluster_slots(0) == 18

    def test_unified_cluster_slots_exclude_ports(self):
        pools = ResourcePools(unified_gp(8), ii=2)
        assert pools.free_cluster_slots(0) == 16

    def test_max_reservable_copies_bused(self, pools):
        # min(free rd = 3, free bus = 6) = 3.
        assert pools.max_reservable_copies(0) == 3
        assert pools.take(demand(pools, "bus", 5))
        assert pools.max_reservable_copies(0) == 1

    def test_max_reservable_copies_unified_is_zero(self):
        pools = ResourcePools(unified_gp(8), ii=4)
        assert pools.max_reservable_copies(0) == 0

    def test_grid_channel_slots_sum_incident_links(self):
        pools = ResourcePools(four_cluster_grid(), ii=2)
        # Cluster 0 touches links (0,1) and (0,2): 2 links x II 2 = 4.
        assert pools.free_channel_slots_from(0) == 4
        assert pools.take(pools.table.demand([("link", 0, 1)]))
        assert pools.free_channel_slots_from(0) == 3

    def test_grid_max_reservable_copies_port_bound(self):
        pools = ResourcePools(four_cluster_grid(), ii=2)
        # rd ports: 2 per cluster x II 2 = 4; links from 0: 4 -> min = 4.
        assert pools.max_reservable_copies(0) == 4
