"""Assignment algorithm variants (paper Section 6, Figures 12–13).

The evaluation compares four configurations of the assignment phase:

=====================  =========  ==============================
Name                   Iterative  Cluster selection
=====================  =========  ==============================
Simple                 no         feasibility only
Heuristic              no         full Figure 10 chain
Simple Iterative       yes        feasibility only
Heuristic Iterative    yes        full Figure 10 chain
=====================  =========  ==============================

*Iterative* means the algorithm survives assignment failures by evicting
conflicting nodes (Section 4.3); non-iterative variants give up on the
first node that fits nowhere and retry at a larger II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Default eviction/assignment budget multiplier (steps per node before
#: declaring failure at the current II), mirroring Rau's scheduler budget.
DEFAULT_ASSIGN_BUDGET_RATIO = 6


@dataclass(frozen=True)
class AssignmentConfig:
    """Tunable knobs of the assignment phase."""

    name: str
    use_heuristic: bool = True
    iterative: bool = True
    budget_ratio: int = DEFAULT_ASSIGN_BUDGET_RATIO
    #: Ablation knob: disable PCR/MRC shading inside the full heuristic
    #: (keeps SCC affinity / copy minimization / free space).
    predict_copies: bool = True
    #: Ablation knob: disable broadcast copy sharing — every consuming
    #: cluster gets its own copy operation even on a bused machine.
    share_broadcast: bool = True
    #: Ablation knob: disable SCC-first grouping — nodes are still SMS
    #: ordered but critical recurrences get no assignment priority and
    #: no cluster-affinity selection.
    scc_first: bool = True


#: The four variants of Figures 12–13.
SIMPLE = AssignmentConfig(
    name="Simple", use_heuristic=False, iterative=False
)
HEURISTIC = AssignmentConfig(
    name="Heuristic", use_heuristic=True, iterative=False
)
SIMPLE_ITERATIVE = AssignmentConfig(
    name="Simple Iterative", use_heuristic=False, iterative=True
)
HEURISTIC_ITERATIVE = AssignmentConfig(
    name="Heuristic Iterative", use_heuristic=True, iterative=True
)

ALL_VARIANTS = (SIMPLE, HEURISTIC, SIMPLE_ITERATIVE, HEURISTIC_ITERATIVE)

#: Slug ("heuristic-iterative") → variant: the names the CLI's
#: ``--variant`` and the compile service's requests use.
VARIANTS_BY_SLUG: Dict[str, AssignmentConfig] = {
    config.name.lower().replace(" ", "-"): config
    for config in ALL_VARIANTS
}

#: Ablations called out in DESIGN.md.
NO_PREDICTION = AssignmentConfig(
    name="Heuristic Iterative (no prediction)", predict_copies=False
)
NO_BROADCAST_SHARING = AssignmentConfig(
    name="Heuristic Iterative (no broadcast sharing)", share_broadcast=False
)
NO_SCC_FIRST = AssignmentConfig(
    name="Heuristic Iterative (no SCC priority)", scc_first=False
)
