"""Time-indexed modulo reservation table (scheduling-phase MRT)."""

import pytest

from repro.mrt import ModuloReservationTable
from repro.machine import two_cluster_gp


@pytest.fixture
def mrt(uni8):
    """MRT of the unified 8-wide machine at II = 4."""
    return ModuloReservationTable(uni8, ii=4)


ISSUE = ("issue", 0, "gp")


def fits(mrt, keys, cycle):
    """True when one slot of every key is free in ``cycle``'s row."""
    return mrt.probe(mrt.compile_demand(keys), cycle)


class TestPlacement:
    def test_place_and_query(self, mrt):
        mrt.place("op1", [ISSUE], cycle=2)
        assert mrt._held["op1"] == [(ISSUE, 2)]
        assert mrt._slots[(ISSUE, 2)] == ["op1"]

    def test_row_wraps_modulo_ii(self, mrt):
        # Cycles 3 and 7 share kernel row 3 at II = 4, and so do the
        # negative cycles a forced placement may choose.
        for i in range(7):
            mrt.place(f"op{i}", [ISSUE], cycle=7)
        mrt.place("op7", [ISSUE], cycle=-1)
        assert mrt._usage[ISSUE] == [0, 0, 0, 8]
        assert mrt.conflicting_ops([ISSUE], 3) == {
            f"op{i}" for i in range(8)
        }

    def test_cycles_congruent_mod_ii_share_rows(self, mrt):
        for i in range(8):
            mrt.place(f"op{i}", [ISSUE], cycle=1)  # row 1 holds 8 slots
        assert not fits(mrt, [ISSUE], 1)
        assert not fits(mrt, [ISSUE], 5)  # same row
        assert fits(mrt, [ISSUE], 2)

    def test_double_place_rejected(self, mrt):
        mrt.place("op1", [ISSUE], cycle=0)
        with pytest.raises(ValueError):
            mrt.place("op1", [ISSUE], cycle=1)

    def test_unknown_key_raises(self, mrt):
        with pytest.raises(KeyError):
            fits(mrt, [("nope",)], 0)

    def test_ii_must_be_positive(self, uni8):
        with pytest.raises(ValueError):
            ModuloReservationTable(uni8, ii=0)


class TestRemoval:
    def test_remove_frees_slots(self, mrt):
        mrt.place("op1", [ISSUE], cycle=3)
        mrt.remove("op1")
        assert "op1" not in mrt._held
        assert fits(mrt, [ISSUE] * 8, 3)

    def test_remove_unplaced_raises(self, mrt):
        with pytest.raises(ValueError):
            mrt.remove("ghost")


class TestConflicts:
    def test_conflicting_ops_in_saturated_row(self, mrt):
        for i in range(8):
            mrt.place(f"op{i}", [ISSUE], cycle=1)
        conflicts = mrt.conflicting_ops([ISSUE], 5)  # row 1
        assert conflicts == {f"op{i}" for i in range(8)}

    def test_no_conflicts_when_room_remains(self, mrt):
        mrt.place("op0", [ISSUE], cycle=0)
        assert mrt.conflicting_ops([ISSUE], 0) == set()

    def test_multi_resource_conflicts(self):
        machine = two_cluster_gp()  # 1 rd port per cluster
        mrt = ModuloReservationTable(machine, ii=2)
        copy_keys = [("rd", 0), ("wr", 1), "bus"]
        mrt.place("cp0", copy_keys, cycle=0)
        conflicts = mrt.conflicting_ops(copy_keys, 0)
        assert conflicts == {"cp0"}
        # Other row is free.
        assert fits(mrt, copy_keys, 1)


class TestDemandProfiles:
    def test_compile_demand_aggregates_duplicates(self, mrt):
        profile = mrt.compile_demand([ISSUE, ISSUE, ISSUE])
        assert len(profile) == 1
        usage, capacity, count = profile[0]
        assert capacity == 8 and count == 3
        for i in range(6):
            mrt.place(f"op{i}", [ISSUE], cycle=0)
        assert not mrt.probe(profile, 0)  # 6 + 3 > 8
        assert mrt.probe(profile, 1)

    def test_compile_demand_unknown_key_raises(self, mrt):
        with pytest.raises(KeyError):
            mrt.compile_demand([("issue", 9, "nope")])

    def test_probe_matches_available(self, mrt):
        # A profile compiled before the placements sees them: it fails
        # exactly in the saturated row.
        profile = mrt.compile_demand([ISSUE])
        for i in range(8):
            mrt.place(f"op{i}", [ISSUE], cycle=2)
        for cycle in range(8):
            assert mrt.probe(profile, cycle) == (cycle % 4 != 2)


class TestUncheckedPlacement:
    def test_place_unchecked_skips_validation(self, mrt):
        for i in range(8):
            mrt.place(f"op{i}", [ISSUE], cycle=0)
        # place trusts the caller's prior probe; it must not raise even
        # though the row is full (the scheduler displaces conflicts
        # before placing, so this state never occurs on the hot path).
        mrt.place("late", [ISSUE], cycle=0)
        assert mrt._usage[ISSUE][0] == 9
        mrt.remove("late")
        assert fits(mrt, [ISSUE], 4) is False  # row 0 still full


class TestSlotHygiene:
    def test_remove_drops_empty_holder_lists(self, mrt):
        mrt.place("op1", [ISSUE], cycle=3)
        mrt.remove("op1")
        assert (ISSUE, 3) not in mrt._slots

    def test_usage_counters_track_slots(self, mrt):
        mrt.place("a", [ISSUE], cycle=0)
        mrt.place("b", [ISSUE], cycle=0)
        mrt.place("c", [ISSUE], cycle=1)
        assert mrt._usage[ISSUE][0] == 2
        assert mrt._usage[ISSUE][1] == 1
        mrt.remove("a")
        assert mrt._usage[ISSUE][0] == 1
        assert len(mrt._slots[(ISSUE, 0)]) == 1
