"""Property-based tests on resource pool invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import two_cluster_gp
from repro.mrt import PoolOverflowError, ResourcePools


def _keys(pools):
    return sorted(pools.table.keys, key=str)


def _free(pools, key):
    """Free slots of ``key``: the largest demand of it that fits."""
    count = 0
    while pools.fits(pools.table.demand([key] * (count + 1))):
        count += 1
    return count


@st.composite
def pool_operations(draw):
    """A sequence of reserve/release operations."""
    ii = draw(st.integers(min_value=1, max_value=6))
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["reserve", "release"]))
        key_index = draw(st.integers(min_value=0, max_value=8))
        ops.append((kind, key_index))
    return ii, ops


def _apply(pools, keys, taken, sequence):
    """Take one slot per "reserve"; give back one the same pools took
    earlier per "release" (a release with nothing taken is skipped, as
    the assigner gives back only what it holds)."""
    for kind, key_index in sequence:
        key = keys[key_index % len(keys)]
        demand = pools.table.demand([key])
        if kind == "reserve":
            if pools.take(demand):
                taken[key] = taken.get(key, 0) + 1
            else:
                assert _free(pools, key) == 0
        elif taken.get(key):
            pools.give(demand)
            taken[key] -= 1


class TestPoolInvariants:
    @given(pool_operations())
    @settings(max_examples=80, deadline=None)
    def test_usage_never_exceeds_capacity_or_goes_negative(self, case):
        ii, ops = case
        pools = ResourcePools(two_cluster_gp(), ii=ii)
        keys = _keys(pools)
        table = pools.table
        taken = {}
        for kind, key_index in ops:
            _apply(pools, keys, taken, [(kind, key_index)])
            key = keys[key_index % len(keys)]
            capacity = table.per_cycle[table.index[key]] * ii
            assert _free(pools, key) == capacity - taken.get(key, 0)
            assert 0 <= taken.get(key, 0) <= capacity

    @given(pool_operations())
    @settings(max_examples=60, deadline=None)
    def test_copy_replays_independently(self, case):
        ii, ops = case
        machine = two_cluster_gp()
        pools = ResourcePools(machine, ii=ii)
        keys = _keys(pools)

        # Apply the first half, copy, apply the rest to the copy only:
        # the original keeps its counts, and the copy ends where
        # applying every operation to one set of pools ends.
        half = len(ops) // 2
        taken = {}
        _apply(pools, keys, taken, ops[:half])
        expected = {key: _free(pools, key) for key in keys}
        scratch = pools.copy()
        _apply(scratch, keys, dict(taken), ops[half:])
        assert {key: _free(pools, key) for key in keys} == expected
        whole = ResourcePools(machine, ii=ii)
        _apply(whole, keys, {}, ops)
        assert {key: _free(scratch, key) for key in keys} == {
            key: _free(whole, key) for key in keys
        }

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_capacity_linear_in_ii(self, ii):
        pools = ResourcePools(two_cluster_gp(), ii=ii)
        assert _free(pools, "bus") == 2 * ii
        assert _free(pools, ("issue", 0, "gp")) == 4 * ii

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_can_reserve_agrees_with_reserve(self, key_indices):
        # fits, take and overflow_error agree on every demand vector;
        # a take that does not fit reserves nothing.
        pools = ResourcePools(two_cluster_gp(), ii=2)
        keys = _keys(pools)
        request = [keys[i % len(keys)] for i in key_indices]
        if not request:
            return
        demand = pools.table.demand(request)
        before = {key: _free(pools, key) for key in keys}
        if pools.fits(demand):
            assert pools.take(demand)
        else:
            assert not pools.take(demand)
            assert isinstance(pools.overflow_error(demand), PoolOverflowError)
            assert {key: _free(pools, key) for key in keys} == before
