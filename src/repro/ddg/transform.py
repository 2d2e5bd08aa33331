"""Annotated DDGs — the hand-off between assignment and scheduling.

The cluster assignment phase outputs a *new* data flow graph "annotated to
indicate cluster assignments and including any required copies" (paper
Section 4).  :class:`AnnotatedDdg` is that artifact: the transformed graph,
a node → cluster map, and for every copy node the source and target
clusters it moves a value between.  A traditional (cluster-oblivious)
modulo scheduler only needs ``resources_of`` to map each node to the
machine resource pools it occupies.

The constructor refuses an unassigned node and a copy entry on a
non-copy node.  Whether the copies carry every cross-cluster value to
clusters they can reach is judged by the certificate checker's
assignment section (CERT603, :func:`repro.scheduling.check_schedule`),
the one checker of a kernel graph and its schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..machine.machine import Machine, ResourceKey
from .graph import Ddg
from .opcodes import Opcode


@dataclass
class AnnotatedDdg:
    """A cluster-annotated DDG ready for modulo scheduling.

    ``cluster_of`` maps every node (operations and copies) to its cluster.
    ``copy_targets`` maps each copy node to the tuple of clusters the copy
    writes to (always a single cluster on non-broadcast fabrics);
    ``copy_value_of`` maps each copy node to the original node whose value
    it transports.
    """

    ddg: Ddg
    machine: Machine
    cluster_of: Dict[int, int]
    copy_targets: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    copy_value_of: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node_id in self.ddg.node_ids:
            if node_id not in self.cluster_of:
                raise ValueError(f"node {node_id} has no cluster assignment")
        for copy_id in self.copy_targets:
            if self.ddg.node(copy_id).opcode is not Opcode.COPY:
                raise ValueError(f"node {copy_id} is not a copy")

    @property
    def copy_nodes(self) -> List[int]:
        """All copy node ids."""
        return [n.node_id for n in self.ddg.nodes if n.is_copy]

    @property
    def copy_count(self) -> int:
        """Number of copy operations the assignment inserted."""
        return len(self.copy_nodes)

    def resources_of(self, node_id: int) -> List[ResourceKey]:
        """Machine resource pools node ``node_id`` occupies per issue."""
        node = self.ddg.node(node_id)
        cluster = self.cluster_of[node_id]
        if node.is_copy:
            return self.machine.copy_hop_resources(
                cluster, list(self.copy_targets[node_id])
            )
        return self.machine.op_resources(node.opcode, cluster)


def trivial_annotation(ddg: Ddg, machine: Machine) -> AnnotatedDdg:
    """Annotate a graph for a unified machine: everything on cluster 0."""
    if not machine.is_unified:
        raise ValueError("trivial annotation requires a unified machine")
    return AnnotatedDdg(
        ddg=ddg,
        machine=machine,
        cluster_of={node_id: 0 for node_id in ddg.node_ids},
    )
