"""Selection chains (paper Figures 9, 10 and 11).

A *selection* (Figure 9) filters a candidate list by a criterion but keeps
the original list whenever the criterion would empty it — so each
selection is a soft preference and the chain is a lexicographic
tie-breaker cascade.

Two chains are defined:

* :func:`select_best_cluster` — Figure 10, used when at least one feasible
  cluster exists.  The full heuristic applies SCC affinity, the PCR/MRC
  prediction test, fewest required copies, and most free resources; the
  *simple* variant (compared in Figures 12–13) skips everything except
  feasibility.  Both include the anti-repetition rule (A) from
  Section 4.3.2.
* :func:`select_failure_cluster` — Figure 11, used when no cluster is
  feasible: prefer clusters where the operation itself (ignoring copies)
  fits, then fewest conflicting predecessors/successors, with rule (A)
  between them.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence


class CandidateInfo(NamedTuple):
    """Everything the selection chains need to know about one candidate
    cluster for the node being assigned.

    A named tuple rather than a frozen dataclass: the assigner builds one
    per cluster at every step, and a frozen dataclass pays an
    ``object.__setattr__`` call per field.
    """

    cluster: int
    #: Assignment (with all required copies) fits — Figure 10 line 1.
    feasible: bool
    #: Another node of the node's SCC is already on this cluster (line 4).
    shares_scc: bool
    #: PCR <= MRC holds on this cluster after the placement (line 6).
    prediction_ok: bool
    #: Required copies this placement generates (line 7).
    new_copies: int
    #: Free slots on the cluster after the placement (line 8).
    free_resources: int
    #: Node was previously assigned to this cluster (rule A).
    previously_here: bool
    #: The op's own issue slot fits, ignoring copies (Figure 11 line 3).
    op_fits: bool
    #: Conflicting preds/succs if forced onto this cluster (Fig. 11 line 4).
    conflicts: int = 0


def select(
    candidates: List[CandidateInfo],
    criterion: Callable[[CandidateInfo], bool],
) -> List[CandidateInfo]:
    """Figure 9: filter by ``criterion``, keep the list if none satisfy."""
    filtered = [c for c in candidates if criterion(c)]
    return filtered if filtered else candidates


def select_min(
    candidates: List[CandidateInfo],
    key: Callable[[CandidateInfo], int],
) -> List[CandidateInfo]:
    """Keep the candidates attaining the minimum of ``key``."""
    if not candidates:
        return candidates
    best = min(key(c) for c in candidates)
    return [c for c in candidates if key(c) == best]


def _first(candidates: Sequence[CandidateInfo]) -> Optional[int]:
    """Lowest cluster index — deterministic "first cluster in LIST"."""
    if not candidates:
        return None
    return min(c.cluster for c in candidates)


def select_best_cluster(
    candidates: List[CandidateInfo],
    node_in_scc: bool,
    use_heuristic: bool,
) -> Optional[int]:
    """Figure 10 with rule (A); returns the chosen cluster or None.

    ``use_heuristic=False`` drops lines 3–8 (the paper's "Simple" cluster
    selection) but keeps feasibility and rule (A).
    """
    working = [c for c in candidates if c.feasible]
    if not working:
        return None
    working = select(working, lambda c: not c.previously_here)  # rule (A)
    if use_heuristic:
        if node_in_scc:
            working = select(working, lambda c: c.shares_scc)  # line 4
        working = select(working, lambda c: c.prediction_ok)  # line 6
        working = select_min(working, lambda c: c.new_copies)  # line 7
        working = select_min(working, lambda c: -c.free_resources)  # line 8
    return _first(working)


def select_failure_cluster(
    candidates: List[CandidateInfo],
) -> Optional[int]:
    """Figure 11 with rule (A); returns the cluster to force onto."""
    working = list(candidates)
    if not working:
        return None
    working = select(working, lambda c: c.op_fits)  # line 3
    working = select(working, lambda c: not c.previously_here)  # rule (A)
    working = select_min(working, lambda c: c.conflicts)  # line 4
    return _first(working)
