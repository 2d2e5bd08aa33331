"""Machine descriptions: resource keys, capacities, unified equivalents."""

import pickle

import pytest

from repro.core import compile_loop
from repro.ddg.opcodes import FuClass, Opcode, fu_class_of
from repro.machine import (
    STANDARD_PRESETS,
    ClusterSpec,
    Machine,
    NoInterconnect,
    fs_units,
    gp_units,
)
from repro.workloads import paper_suite


class TestShape:
    def test_cluster_count_and_width(self, two_gp):
        assert two_gp.n_clusters == 2
        assert two_gp.total_width == 8
        assert not two_gp.is_unified
        assert two_gp.general_purpose

    def test_unified_flag(self, uni8):
        assert uni8.is_unified
        assert uni8.n_clusters == 1

    def test_cluster_indices(self, four_gp):
        assert four_gp.cluster_indices == [0, 1, 2, 3]

    def test_indices_must_be_sequential(self):
        cluster = ClusterSpec(index=1, units=gp_units(2))
        with pytest.raises(ValueError):
            Machine(clusters=(cluster,), interconnect=NoInterconnect())

    def test_empty_machine_rejected(self):
        with pytest.raises(ValueError):
            Machine(clusters=(), interconnect=NoInterconnect())

    def test_mixed_disciplines_rejected(self):
        c0 = ClusterSpec(index=0, units=gp_units(4))
        c1 = ClusterSpec(index=1, units=fs_units(1, 2, 1))
        with pytest.raises(ValueError):
            Machine(clusters=(c0, c1), interconnect=NoInterconnect())


class TestIssueCapacity:
    def test_gp_capacity_is_total_width(self, two_gp):
        for fu_class in (FuClass.MEMORY, FuClass.INTEGER, FuClass.FLOAT):
            assert two_gp.issue_capacity(fu_class) == 8

    def test_fs_capacity_sums_clusters(self, two_fs):
        assert two_fs.issue_capacity(FuClass.MEMORY) == 2
        assert two_fs.issue_capacity(FuClass.INTEGER) == 4
        assert two_fs.issue_capacity(FuClass.FLOAT) == 2


class TestResourceKeys:
    def test_gp_issue_key(self, two_gp):
        assert two_gp.issue_key(1, FuClass.FLOAT) == ("issue", 1, "gp")

    def test_fs_issue_key(self, two_fs):
        assert two_fs.issue_key(0, FuClass.MEMORY) == (
            "issue", 0, FuClass.MEMORY,
        )

    def test_capacities_of_two_cluster_gp(self, two_gp):
        caps = two_gp.resource_capacities()
        assert caps[("issue", 0, "gp")] == 4
        assert caps[("rd", 0)] == 1
        assert caps[("wr", 1)] == 1
        assert caps["bus"] == 2

    def test_unified_machine_has_no_ports(self, uni8):
        caps = uni8.resource_capacities()
        assert ("rd", 0) not in caps
        assert ("wr", 0) not in caps
        assert "bus" not in caps

    def test_grid_capacities_have_links(self, grid):
        caps = grid.resource_capacities()
        link_keys = [k for k in caps if isinstance(k, tuple) and k[0] == "link"]
        assert len(link_keys) == 4
        assert all(caps[k] == 1 for k in link_keys)


class TestOpResources:
    def test_plain_op_takes_one_issue_slot(self, two_gp):
        assert two_gp.op_resources(Opcode.FP_MULT, 1) == [("issue", 1, "gp")]

    def test_fs_op_takes_class_slot(self, two_fs):
        assert two_fs.op_resources(Opcode.LOAD, 0) == [
            ("issue", 0, FuClass.MEMORY)
        ]

    def test_copy_rejected_here(self, two_gp):
        with pytest.raises(ValueError):
            two_gp.op_resources(Opcode.COPY, 0)

    def test_class_missing_on_cluster_raises(self):
        cluster = ClusterSpec(index=0, units=fs_units(1, 1, 0))
        machine = Machine(clusters=(cluster,), interconnect=NoInterconnect())
        with pytest.raises(ValueError):
            machine.op_resources(Opcode.FP_ADD, 0)


class TestCopyResources:
    def test_bus_copy_single_target(self, two_gp):
        resources = two_gp.copy_hop_resources(0, [1])
        assert sorted(map(str, resources)) == sorted(
            map(str, [("rd", 0), ("wr", 1), "bus"])
        )

    def test_bus_broadcast_multiple_targets(self, four_gp):
        resources = four_gp.copy_hop_resources(0, [1, 2, 3])
        assert resources.count("bus") == 1
        assert ("rd", 0) in resources
        for target in (1, 2, 3):
            assert ("wr", target) in resources

    def test_p2p_copy_requires_single_neighbor(self, grid):
        with pytest.raises(ValueError):
            grid.copy_hop_resources(0, [1, 2])

    def test_p2p_copy_to_non_neighbor_rejected(self, grid):
        with pytest.raises(ValueError):
            grid.copy_hop_resources(0, [3])

    def test_p2p_copy_resources(self, grid):
        resources = grid.copy_hop_resources(0, [1])
        assert ("rd", 0) in resources
        assert ("wr", 1) in resources
        assert ("link", 0, 1) in resources

    def test_copy_to_self_rejected(self, two_gp):
        with pytest.raises(ValueError):
            two_gp.copy_hop_resources(0, [0])

    def test_empty_targets_rejected(self, two_gp):
        with pytest.raises(ValueError):
            two_gp.copy_hop_resources(0, [])


class TestUnifiedEquivalent:
    def test_gp_equivalent_merges_width(self, four_gp):
        unified = four_gp.unified_equivalent()
        assert unified.is_unified
        assert unified.total_width == 16
        assert unified.general_purpose

    def test_fs_equivalent_merges_classes(self, four_fs):
        unified = four_fs.unified_equivalent()
        assert unified.issue_capacity(FuClass.MEMORY) == 4
        assert unified.issue_capacity(FuClass.INTEGER) == 8
        assert unified.issue_capacity(FuClass.FLOAT) == 4

    def test_grid_equivalent(self, grid):
        unified = grid.unified_equivalent()
        assert unified.total_width == 12
        assert unified.issue_capacity(FuClass.MEMORY) == 4

    def test_unified_of_unified_is_itself(self, uni8):
        assert uni8.unified_equivalent() is uni8


class TestResourceTable:
    def test_indices_follow_capacity_order(self, grid):
        table = grid.resource_table
        caps = grid.resource_capacities()
        assert list(table.keys) == list(caps)
        assert list(table.per_cycle) == list(caps.values())
        assert all(table.index[key] == i for i, key in enumerate(table.keys))

    def test_per_cluster_indices(self, grid):
        table = grid.resource_table
        assert {table.keys[i] for i in table.issue[0]} == {
            ("issue", 0, fu) for fu in
            (FuClass.MEMORY, FuClass.INTEGER, FuClass.FLOAT)
        }
        assert {table.keys[i] for i in table.channels[0]} == {
            ("link", 0, 1), ("link", 0, 2),
        }
        assert table.keys[table.read_port[2]] == ("rd", 2)
        assert table.keys[table.write_port[3]] == ("wr", 3)

    def test_issue_demand_matches_op_resources(self, two_fs):
        table = two_fs.resource_table
        for opcode in Opcode:
            for cluster in two_fs.cluster_indices:
                demand = table.issue_demand[fu_class_of(opcode)][cluster]
                if opcode is Opcode.COPY:
                    assert demand is None
                    continue
                assert demand == table.demand(
                    two_fs.op_resources(opcode, cluster)
                )

    def test_missing_unit_has_no_issue_demand(self):
        cluster = ClusterSpec(index=0, units=fs_units(1, 1, 0))
        machine = Machine(clusters=(cluster,), interconnect=NoInterconnect())
        table = machine.resource_table
        assert table.issue_demand[FuClass.FLOAT] == (None,)
        assert table.read_port == (None,)

    def test_demand_counts_repeated_keys(self, two_gp):
        table = two_gp.resource_table
        assert table.demand(["bus", ("rd", 0), "bus"]) == (
            (table.index["bus"], 2), (table.index[("rd", 0)], 1),
        )

    @pytest.mark.parametrize("preset", ["2gp", "grid"])
    def test_derived_tables_stay_out_of_pickles(self, preset):
        # Task payloads carry pickled machines: compiling must not grow
        # them with the resource table, the copy-plan templates or the
        # point-to-point route memo.
        machine = STANDARD_PRESETS[preset]()
        before = pickle.dumps(machine)
        for ddg in paper_suite(20, 1998):
            compile_loop(ddg, machine)
        templates = machine.resource_table.copy_templates
        assert any(templates[True]) or any(templates[False])
        assert pickle.dumps(machine) == before
        clone = pickle.loads(before)
        assert clone == machine
        assert clone.resource_table.keys == machine.resource_table.keys
