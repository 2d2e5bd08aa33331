"""Schedule-priority metrics: ASAP, ALAP, depth, height, mobility.

All metrics are II-aware: a dependence edge ``(u, v)`` with distance ``d``
contributes weight ``latency(u) - II * d``, so loop-carried edges relax
rather than lengthen paths once ``II >= RecMII``.  The fixpoint iteration
converges exactly when no cycle has positive weight, i.e. whenever the
caller respects ``II >= RecMII``; a guard raises otherwise instead of
looping forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..ddg.graph import Ddg


class PriorityDivergenceError(RuntimeError):
    """Raised when metrics are requested at an II below RecMII."""


def _relax_forward(ddg: Ddg, ii: int) -> Dict[int, int]:
    """Longest path *into* each node (its earliest start), a.k.a. ASAP."""
    view = ddg.view()
    edges = view.edge_array
    asap = {node_id: 0 for node_id in view.node_ids}
    for _ in range(len(asap) + 1):
        changed = False
        for src, dst, latency, distance in edges:
            candidate = asap[src] + latency - ii * distance
            if candidate > asap[dst]:
                asap[dst] = candidate
                changed = True
        if not changed:
            return asap
    raise PriorityDivergenceError(
        f"ASAP relaxation diverges at II={ii}: II is below RecMII"
    )


def _relax_backward(ddg: Ddg, ii: int) -> Dict[int, int]:
    """Longest path *out of* each node including its own latency (height).

    Heights flow from consumers to producers, so the edges are relaxed
    in reverse insertion order, which settles them in fewer passes; the
    fixpoint, and so the result, does not depend on the order.
    """
    view = ddg.view()
    edges = view.edge_array[::-1]
    height = dict(view.latency)
    for _ in range(len(height) + 1):
        changed = False
        for src, dst, latency, distance in edges:
            candidate = height[dst] + latency - ii * distance
            if candidate > height[src]:
                height[src] = candidate
                changed = True
        if not changed:
            return height
    raise PriorityDivergenceError(
        f"height relaxation diverges at II={ii}: II is below RecMII"
    )


@dataclass(frozen=True)
class PriorityMetrics:
    """Per-node scheduling metrics at one candidate II."""

    ii: int
    asap: Dict[int, int]
    alap: Dict[int, int]
    height: Dict[int, int]
    critical_path: int

    def depth(self, node_id: int) -> int:
        """Longest path from any source to the node's issue cycle."""
        return self.asap[node_id]

    def mobility(self, node_id: int) -> int:
        """Scheduling freedom: ``ALAP - ASAP`` (0 on the critical path)."""
        return self.alap[node_id] - self.asap[node_id]


def compute_metrics(ddg: Ddg, ii: int) -> PriorityMetrics:
    """Compute ASAP/ALAP/height metrics for every node of ``ddg``.

    ``critical_path`` is the length (in cycles) of the longest dependence
    chain through one iteration at this II; ALAP is derived from it so
    that ``ALAP >= ASAP`` for every node.
    """
    if len(ddg) == 0:
        return PriorityMetrics(ii=ii, asap={}, alap={}, height={},
                               critical_path=0)
    view = ddg.view()
    asap = _relax_forward(ddg, ii)
    height = _relax_backward(ddg, ii)
    critical_path = max(
        asap[node_id] + view.latency[node_id] for node_id in view.node_ids
    )
    # ALAP(v) = latest start keeping the critical-path length:
    # critical_path - height(v) places v so its downstream chain just fits.
    alap = {
        node_id: critical_path - height[node_id]
        for node_id in view.node_ids
    }
    return PriorityMetrics(
        ii=ii,
        asap=asap,
        alap=alap,
        height=height,
        critical_path=critical_path,
    )
