"""Buses, point-to-point links, routing."""

import pytest

from repro.ddg.validate import ValidationError
from repro.machine import (
    BusInterconnect,
    NoInterconnect,
    PointToPointInterconnect,
    grid_links,
)


class TestBus:
    def test_broadcast_reaches_everything(self):
        bus = BusInterconnect(bus_count=2)
        assert bus.broadcast
        assert bus.reachable(0, 3)
        assert bus.route(0, 3) == [0, 3]
        assert bus.hop_distance(0, 3) == 1

    def test_route_to_self(self):
        bus = BusInterconnect(bus_count=1)
        assert bus.route(2, 2) == [2]

    def test_channel_pool(self):
        assert BusInterconnect(bus_count=4).channel_resources() == {"bus": 4}

    def test_hop_channel_is_the_bus(self):
        assert BusInterconnect(bus_count=2).channel_for_hop(0, 1) == "bus"

    def test_zero_buses_rejected(self):
        with pytest.raises(ValidationError) as exc:
            BusInterconnect(bus_count=0)
        assert exc.value.code == "MACH206"


class TestPointToPoint:
    @pytest.fixture
    def square(self):
        """The paper's 2x2 grid: 0-1, 0-2, 1-3, 2-3."""
        return PointToPointInterconnect(grid_links(2, 2))

    def test_not_broadcast(self, square):
        assert not square.broadcast

    def test_neighbors_reachable_one_hop(self, square):
        assert square.reachable(0, 1)
        assert square.reachable(0, 2)
        assert not square.reachable(0, 3)  # diagonal

    def test_diagonal_routes_in_two_hops(self, square):
        route = square.route(0, 3)
        assert len(route) == 3
        assert route[0] == 0 and route[-1] == 3
        assert route[1] in (1, 2)

    def test_hop_distance(self, square):
        assert square.hop_distance(0, 1) == 1
        assert square.hop_distance(0, 3) == 2
        assert square.hop_distance(2, 2) == 0

    def test_channel_pools_one_per_link(self, square):
        pools = square.channel_resources()
        assert len(pools) == 4
        assert all(capacity == 1 for capacity in pools.values())

    def test_channel_for_hop_is_direction_agnostic(self, square):
        assert square.channel_for_hop(0, 1) == square.channel_for_hop(1, 0)

    def test_channel_for_missing_link_raises(self, square):
        with pytest.raises(ValueError):
            square.channel_for_hop(0, 3)

    def test_unroutable_pair_raises(self):
        fabric = PointToPointInterconnect([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            fabric.route(0, 3)

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            PointToPointInterconnect([(1, 1)])

    def test_duplicate_links_deduplicated(self):
        fabric = PointToPointInterconnect([(0, 1), (1, 0)])
        assert len(fabric.links) == 1

    def test_empty_fabric_rejected(self):
        with pytest.raises(ValidationError) as exc:
            PointToPointInterconnect([])
        assert exc.value.code == "MACH206"


class TestGridLinks:
    def test_two_by_two(self):
        links = set(grid_links(2, 2))
        assert links == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_one_by_three_chain(self):
        assert set(grid_links(1, 3)) == {(0, 1), (1, 2)}

    def test_three_by_three_count(self):
        # 3x3 mesh: 2*3 horizontal + 3*2 vertical = 12 links.
        assert len(grid_links(3, 3)) == 12


class TestNoInterconnect:
    def test_only_self_reachable(self):
        fabric = NoInterconnect()
        assert fabric.reachable(0, 0)
        assert not fabric.reachable(0, 1)

    def test_cross_route_raises(self):
        with pytest.raises(ValueError):
            NoInterconnect().route(0, 1)

    def test_no_channels(self):
        assert NoInterconnect().channel_resources() == {}

    def test_hop_channel_raises(self):
        with pytest.raises(ValueError):
            NoInterconnect().channel_for_hop(0, 1)
