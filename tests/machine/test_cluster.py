"""Cluster specifications."""

import pytest

from repro.ddg.opcodes import FuClass
from repro.machine import ClusterSpec, fs_units, gp_units


class TestClusterSpec:
    def test_width_and_capacity(self):
        cluster = ClusterSpec(index=0, units=gp_units(4))
        assert cluster.width == 4
        assert cluster.issue_capacity(FuClass.FLOAT) == 4

    def test_fs_capacity(self):
        cluster = ClusterSpec(index=0, units=fs_units(1, 2, 1))
        assert cluster.issue_capacity(FuClass.INTEGER) == 2
        assert cluster.issue_capacity(FuClass.MEMORY) == 1

    def test_default_ports(self):
        cluster = ClusterSpec(index=0, units=gp_units(4))
        assert cluster.read_ports == 1
        assert cluster.write_ports == 1

    def test_name(self):
        assert ClusterSpec(index=3, units=gp_units(1)).name == "C3"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(index=-1, units=gp_units(1))

    def test_negative_ports_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(index=0, units=gp_units(1), read_ports=-1)

    def test_frozen(self):
        cluster = ClusterSpec(index=0, units=gp_units(4))
        with pytest.raises(AttributeError):
            cluster.read_ports = 2
