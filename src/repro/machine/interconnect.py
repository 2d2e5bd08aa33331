"""Inter-cluster communication fabrics.

The paper models two fabrics (Section 2.1):

* **Buses** — a copy reserves one bus for one cycle and *broadcasts*: the
  value may be written to any number of clusters that have a free write
  port in that cycle.  The result of an operation therefore needs to be
  communicated at most once, no matter how many clusters consume it.
* **Point-to-point links** — a copy reserves the entire dedicated
  connection between two neighboring clusters for one cycle and delivers
  to exactly that neighbor.  Reaching a non-neighbor requires a chain of
  copies routed hop by hop (e.g. the diagonal of the 2×2 grid takes two
  hops).

Both fabrics expose the same small protocol used by the assignment phase
and the resource tables:

* ``broadcast`` — whether one copy can serve several target clusters,
* ``reachable(src, dst)`` — whether a single copy can move a value,
* ``route(src, dst)`` — the cluster path a value must travel,
* ``channel_resources()`` — the shared channel pools and their per-cycle
  capacities,
* ``channel_for_hop(src, dst)`` — which pool one hop consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, List, Sequence, Tuple

import networkx as nx

from .validate import empty_channel


class Interconnect:
    """Abstract inter-cluster fabric."""

    #: Whether one copy reaches multiple targets (bus broadcast).
    broadcast: bool = False

    def reachable(self, src: int, dst: int) -> bool:
        """True when a single copy can move a value from src to dst."""
        raise NotImplementedError

    def route(self, src: int, dst: int) -> List[int]:
        """Cluster sequence from ``src`` to ``dst`` inclusive.

        ``route(a, a) == [a]``.  Raises :class:`ValueError` when no path
        exists.
        """
        raise NotImplementedError

    def channel_resources(self) -> Dict[Hashable, int]:
        """Per-cycle capacity of every shared channel pool."""
        raise NotImplementedError

    def channel_for_hop(self, src: int, dst: int) -> Hashable:
        """The channel pool one single-hop copy from src to dst consumes."""
        raise NotImplementedError

    def hop_distance(self, src: int, dst: int) -> int:
        """Number of copies needed to move a value from src to dst."""
        return len(self.route(src, dst)) - 1


@dataclass(frozen=True)
class BusInterconnect(Interconnect):
    """``bus_count`` shared broadcast buses connecting every cluster."""

    bus_count: int
    broadcast: bool = True

    def __post_init__(self) -> None:
        error = empty_channel("bus", self.bus_count)
        if error is not None:
            raise error

    def reachable(self, src: int, dst: int) -> bool:
        return True

    def route(self, src: int, dst: int) -> List[int]:
        if src == dst:
            return [src]
        return [src, dst]

    def channel_resources(self) -> Dict[Hashable, int]:
        return {"bus": self.bus_count}

    def channel_for_hop(self, src: int, dst: int) -> Hashable:
        return "bus"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.bus_count} bus(es)"


class PointToPointInterconnect(Interconnect):
    """Dedicated bidirectional links between specific cluster pairs.

    A copy consumes the entire link for a cycle (paper Section 2.1), so a
    link is one pool of per-cycle capacity 1 regardless of direction.
    """

    broadcast = False

    def __init__(self, links: Sequence[Tuple[int, int]]) -> None:
        error = empty_channel("links", len(links))
        if error is not None:
            raise error
        normalized: List[FrozenSet[int]] = []
        for a, b in links:
            if a == b:
                raise ValueError(f"self-link on cluster {a}")
            link = frozenset((a, b))
            if link not in normalized:
                normalized.append(link)
        self._links = normalized

    def __getstate__(self) -> Dict[str, object]:
        # The link graph and the route memo are derived and rebuilt on
        # first use: like ``Machine.resource_table`` they stay out of
        # pickles, so a machine pickles to the same bytes before and
        # after it routes anything.
        return {"_links": self._links}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointToPointInterconnect):
            return NotImplemented
        return self._links == other._links

    def __hash__(self) -> int:
        return hash(tuple(self._links))

    @cached_property
    def _graph(self) -> nx.Graph:
        graph = nx.Graph()
        for link in self._links:
            a, b = sorted(link)
            graph.add_edge(a, b)
        return graph

    @cached_property
    def _routes(self) -> Dict[Tuple[int, int], List[int]]:
        return {}

    @property
    def links(self) -> List[Tuple[int, int]]:
        """All links as sorted cluster-index pairs."""
        return [tuple(sorted(link)) for link in self._links]

    def reachable(self, src: int, dst: int) -> bool:
        return frozenset((src, dst)) in self._links

    def route(self, src: int, dst: int) -> List[int]:
        if src == dst:
            return [src]
        key = (src, dst)
        if key not in self._routes:
            try:
                path = nx.shortest_path(self._graph, src, dst)
            except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
                raise ValueError(
                    f"no point-to-point route from cluster {src} to {dst}"
                ) from exc
            self._routes[key] = list(path)
        return list(self._routes[key])

    def channel_resources(self) -> Dict[Hashable, int]:
        return {("link",) + tuple(sorted(link)): 1 for link in self._links}

    def channel_for_hop(self, src: int, dst: int) -> Hashable:
        link = frozenset((src, dst))
        if link not in self._links:
            raise ValueError(f"no link between clusters {src} and {dst}")
        return ("link",) + tuple(sorted(link))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{len(self._links)} point-to-point link(s)"


@dataclass(frozen=True)
class NoInterconnect(Interconnect):
    """Fabric of a unified (single-cluster) machine: nothing to cross."""

    broadcast: bool = False

    def reachable(self, src: int, dst: int) -> bool:
        return src == dst

    def route(self, src: int, dst: int) -> List[int]:
        if src != dst:
            raise ValueError("unified machine has a single cluster")
        return [src]

    def channel_resources(self) -> Dict[Hashable, int]:
        return {}

    def channel_for_hop(self, src: int, dst: int) -> Hashable:
        raise ValueError("unified machine never copies between clusters")


def grid_links(rows: int, cols: int) -> List[Tuple[int, int]]:
    """Links of a ``rows × cols`` mesh, clusters numbered row-major.

    The paper's 4-cluster grid is ``grid_links(2, 2)``: every cluster is
    connected to its horizontal and vertical neighbor.
    """
    links: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            if c + 1 < cols:
                links.append((here, here + 1))
            if r + 1 < rows:
                links.append((here, here + cols))
    return links
