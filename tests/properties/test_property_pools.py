"""Property-based tests on resource pool invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import two_cluster_gp
from repro.mrt import PoolOverflowError, ResourcePools


def _keys(pools):
    return sorted(pools.keys(), key=str)


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


class TestPoolInvariants:
    @given(pool_operations())
    @settings(max_examples=80, deadline=None)
    def test_usage_never_exceeds_capacity_or_goes_negative(self, case):
        ii, ops = case
        pools = ResourcePools(two_cluster_gp(), ii=ii)
        keys = _keys(pools)
        for kind, key_index in ops:
            key = keys[key_index % len(keys)]
            if kind == "reserve":
                try:
                    pools.reserve([key])
                except PoolOverflowError:
                    assert pools.free(key) == 0
            else:
                try:
                    pools.release([key])
                except ValueError:
                    assert pools.used(key) == 0
            assert 0 <= pools.used(key) <= pools.capacity(key)

    @given(pool_operations())
    @settings(max_examples=60, deadline=None)
    def test_copy_replays_independently(self, case):
        ii, ops = case
        machine = two_cluster_gp()
        pools = ResourcePools(machine, ii=ii)
        keys = _keys(pools)

        def apply(target, sequence):
            for kind, key_index in sequence:
                key = keys[key_index % len(keys)]
                try:
                    target.reserve([key]) if kind == "reserve" else (
                        target.release([key])
                    )
                except (PoolOverflowError, ValueError):
                    pass

        # Apply the first half, copy, apply the rest to the copy only:
        # the original keeps its counts, and the copy ends where
        # applying every operation to one set of pools ends.
        half = len(ops) // 2
        apply(pools, ops[:half])
        expected = {key: pools.used(key) for key in keys}
        scratch = pools.copy()
        apply(scratch, ops[half:])
        assert {key: pools.used(key) for key in keys} == expected
        whole = ResourcePools(machine, ii=ii)
        apply(whole, ops)
        assert {key: scratch.used(key) for key in keys} == {
            key: whole.used(key) for key in keys
        }

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_capacity_linear_in_ii(self, ii):
        pools = ResourcePools(two_cluster_gp(), ii=ii)
        assert pools.capacity("bus") == 2 * ii
        assert pools.capacity(("issue", 0, "gp")) == 4 * ii

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_can_reserve_agrees_with_reserve(self, key_indices):
        pools = ResourcePools(two_cluster_gp(), ii=2)
        keys = _keys(pools)
        request = [keys[i % len(keys)] for i in key_indices]
        if not request:
            return
        if pools.can_reserve(request):
            pools.reserve(request)  # must not raise
        else:
            with pytest.raises(PoolOverflowError):
                pools.reserve(request)
