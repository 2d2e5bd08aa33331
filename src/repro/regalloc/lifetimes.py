"""Value lifetimes of a modulo schedule.

A value is born when its producer completes and dies at its last read
(``II × distance`` later for loop-carried reads).  Because the kernel
repeats every II cycles, a lifetime is a *cyclic* interval once the
schedule reaches steady state; register allocation for software
pipelines is therefore cyclic-interval packing (Rau et al., PLDI'92 —
the paper's reference [21]).
"""

from __future__ import annotations

from typing import List, NamedTuple

from ..scheduling.schedule import Schedule


class Lifetime(NamedTuple):
    """One value's live range in absolute cycles of iteration 0.

    A ``NamedTuple`` rather than a dataclass: the certify gate re-extracts
    lifetimes for every compiled loop, and tuple construction is the
    bulk of that cost.
    """

    producer: int
    cluster: int
    birth: int
    death: int

    @property
    def length(self) -> int:
        """Cycles the value stays live (0 = consumed as produced)."""
        return max(0, self.death - self.birth)

    def instances(self, ii: int) -> int:
        """Simultaneously-live copies of this value in steady state."""
        return max(1, -(-self.length // ii))


def extract_lifetimes(schedule: Schedule) -> List[Lifetime]:
    """Lifetimes of every value the loop produces and consumes.

    Copies count as producers too: the transported value occupies a
    register in each *target* cluster's file from the copy's completion
    to its last read there — exactly the per-cluster storage the
    clustered hardware provides.  Values with no consumers need no
    register and are omitted.
    """
    annotated = schedule.annotated
    ddg = annotated.ddg
    ii = schedule.ii
    start = schedule.start
    cluster_of = annotated.cluster_of
    # One sweep over the edges: last read of each producer's value per
    # consuming cluster.  (The value dies at its last read *on this
    # cluster* — a broadcast copy's value may retire earlier on one
    # target than another.)
    last_read: dict = {}
    for edge in ddg.edges:
        death = start[edge.dst] + ii * edge.distance
        key = (edge.src, cluster_of[edge.dst])
        prior = last_read.get(key)
        if prior is None or death > prior:
            last_read[key] = death
    lifetimes: List[Lifetime] = []
    for node in ddg.nodes:
        if not node.produces_value:
            continue
        birth = start[node.node_id] + node.latency
        if node.is_copy:
            clusters = annotated.copy_targets[node.node_id]
        else:
            clusters = (cluster_of[node.node_id],)
        for cluster in clusters:
            death = last_read.get((node.node_id, cluster))
            if death is None:
                continue
            lifetimes.append(
                Lifetime(node.node_id, cluster, birth, death)
            )
    return lifetimes
