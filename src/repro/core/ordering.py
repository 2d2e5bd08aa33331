"""Node grouping and ordering for cluster assignment (paper Section 4.1).

Builds the ordered work list the assignment phase consumes: non-trivial
SCCs first (most constraining RecMII first, so the recurrences that would
hurt II the most are placed while clusters are still empty), all remaining
nodes last, with the Swing Modulo Scheduling order inside each set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ddg.graph import Ddg
from ..ddg.scc import Scc, SccPartition, find_sccs
from ..scheduling.priority import compute_metrics
from ..scheduling.swing import assignment_order, swing_order


@dataclass
class AssignmentOrder:
    """The assignment work list plus the SCC structure behind it."""

    order: List[int]
    rank: Dict[int, int]
    partition: SccPartition

    def scc_of(self, node_id: int) -> Optional[Scc]:
        """The node's non-trivial SCC, if any."""
        return self.partition.scc_of(node_id)

    def priority_of(self, node_id: int) -> int:
        """Lower rank = assigned earlier = higher priority."""
        return self.rank[node_id]


def build_assignment_order(
    ddg: Ddg, ii: int, scc_first: bool = True
) -> AssignmentOrder:
    """Compute the paper's Section 4.1 ordering at candidate ``ii``.

    ``scc_first=False`` is an ablation: the SMS sweep still runs but over
    a single all-nodes set, and the partition is reported empty so the
    selection heuristic applies no SCC affinity either.
    """
    metrics = compute_metrics(ddg, max(ii, 1))
    if scc_first:
        partition = find_sccs(ddg)
        order = assignment_order(ddg, metrics)
    else:
        partition = SccPartition(sccs=[], membership={})
        order = swing_order(ddg, [set(ddg.node_ids)], metrics)
    if len(order) != len(ddg):
        raise RuntimeError(
            f"ordering covered {len(order)} of {len(ddg)} nodes"
        )
    rank = {node_id: index for index, node_id in enumerate(order)}
    return AssignmentOrder(order=order, rank=rank, partition=partition)
