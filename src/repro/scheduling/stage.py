"""Stage scheduling — post-pass register-pressure reduction.

The paper's recommended phase-two pipeline is "an iterative modulo
scheduler combined with a stage scheduler" (Section 1.2, citing
Eichenberger & Davidson, MICRO-28).  A stage scheduler takes a finished
modulo schedule and moves operations by whole multiples of II — their
kernel *row* (and therefore every resource reservation) is unchanged,
only their *stage* moves — to shorten value lifetimes and thus register
requirements.

This implementation is the classic greedy formulation: sweep operations
in decreasing-slack order; for each, compute the feasible stage window
from its dependences (which are invariant under multiple-of-II shifts of
the whole schedule, so the window is exact) and choose the shift that
minimizes the total lifetime of the values it produces and consumes.
Repeat until a sweep makes no improvement, at most :data:`MAX_SWEEPS`
times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..ddg.graph import Ddg
from .schedule import Schedule

#: Greedy sweeps over the operations before stage scheduling stops.
MAX_SWEEPS = 4


@dataclass
class StageScheduleResult:
    """Outcome of stage scheduling one modulo schedule."""

    schedule: Schedule
    moves: int
    lifetime_before: int
    lifetime_after: int

    @property
    def improved(self) -> bool:
        """Whether any lifetime shrank."""
        return self.lifetime_after < self.lifetime_before


def total_lifetime(schedule: Schedule) -> int:
    """Sum over produced values of (last use - availability) in cycles.

    This is the quantity stage scheduling minimizes; it is a direct proxy
    for register requirements (MaxLive integrates the same lifetimes).
    """
    ddg = schedule.annotated.ddg
    ii = schedule.ii
    total = 0
    for node in ddg.nodes:
        if not node.produces_value:
            continue
        uses = ddg.out_edges(node.node_id)
        if not uses:
            continue
        birth = schedule.start[node.node_id] + node.latency
        death = max(
            schedule.start[edge.dst] + ii * edge.distance for edge in uses
        )
        total += max(0, death - birth)
    return total


def _stage_window(
    ddg: Ddg, start: Dict[int, int], ii: int, node_id: int
) -> "tuple[int, int]":
    """Inclusive bounds (in stages) the node may shift to.

    An edge ``(u, v, d)`` requires ``start(v) >= start(u) + lat(u) - II*d``;
    shifting ``node`` by ``k * II`` keeps its row, so the bound translates
    into integer stage limits.
    """
    t = start[node_id]
    low_shift = -(10 ** 9)
    high_shift = 10 ** 9
    for edge in ddg.in_edges(node_id):
        if edge.src == node_id:
            continue
        bound = start[edge.src] + ddg.latency(edge.src) - ii * edge.distance
        # t + k*ii >= bound  ->  k >= ceil((bound - t) / ii)
        need = -((t - bound) // ii)
        low_shift = max(low_shift, need)
    for edge in ddg.out_edges(node_id):
        if edge.dst == node_id:
            continue
        bound = start[edge.dst] - ddg.latency(node_id) + ii * edge.distance
        # t + k*ii <= bound  ->  k <= floor((bound - t) / ii)
        allow = (bound - t) // ii
        high_shift = min(high_shift, allow)
    return low_shift, high_shift


def stage_schedule(schedule: Schedule) -> StageScheduleResult:
    """Reduce register lifetimes by stage moves; returns a new schedule.

    The input schedule is not modified.  Kernel rows — and therefore the
    modulo reservation table — are preserved exactly; only stages change,
    so the result is valid whenever the input was.
    """
    ddg = schedule.annotated.ddg
    ii = schedule.ii
    start = dict(schedule.start)
    before = total_lifetime(schedule)

    def lifetime_delta(node_id: int, shift_stages: int) -> int:
        """Change in total lifetime if node moves by shift_stages."""
        delta = 0
        move = shift_stages * ii
        node = ddg.node(node_id)
        if node.produces_value and ddg.out_edges(node_id):
            birth = start[node_id] + node.latency
            death = max(
                start[edge.dst] + ii * edge.distance
                for edge in ddg.out_edges(node_id)
                if edge.dst != node_id
            ) if any(e.dst != node_id for e in ddg.out_edges(node_id)) else birth
            delta += max(0, death - (birth + move)) - max(0, death - birth)
        for edge in ddg.in_edges(node_id):
            if edge.src == node_id:
                continue
            producer = ddg.node(edge.src)
            if not producer.produces_value:
                continue
            uses = [e for e in ddg.out_edges(edge.src) if e.dst != edge.src]
            birth = start[edge.src] + producer.latency
            old_death = max(
                start[e.dst] + ii * e.distance for e in uses
            )
            new_death = max(
                (start[e.dst] + (move if e.dst == node_id else 0))
                + ii * e.distance
                for e in uses
            )
            delta += max(0, new_death - birth) - max(0, old_death - birth)
        return delta

    moves = 0
    # Shifts beyond the schedule's own stage span can never help a
    # lifetime (and unconstrained sources/sinks have infinite windows),
    # so clamp the search to a span-sized neighborhood of the current
    # position.
    span = (max(start.values()) - min(start.values())) // ii + 2
    for _ in range(MAX_SWEEPS):
        changed = False
        for node_id in ddg.node_ids:
            low, high = _stage_window(ddg, start, ii, node_id)
            low = max(low, -span)
            high = min(high, span)
            if low > 0 or high < 0 or (low == 0 and high == 0):
                continue  # no legal move (or only the identity)
            best_shift, best_delta = 0, 0
            for shift in range(low, high + 1):
                if shift == 0:
                    continue
                delta = lifetime_delta(node_id, shift)
                if delta < best_delta:
                    best_shift, best_delta = shift, delta
            if best_shift != 0:
                start[node_id] += best_shift * ii
                moves += 1
                changed = True
        if not changed:
            break

    # Normalize to non-negative starts (multiple-of-II shift).
    lowest = min(start.values())
    if lowest < 0:
        bump = ((-lowest + ii - 1) // ii) * ii
        start = {node_id: t + bump for node_id, t in start.items()}
    improved = Schedule(
        annotated=schedule.annotated, ii=ii, start=start
    )
    return StageScheduleResult(
        schedule=improved,
        moves=moves,
        lifetime_before=before,
        lifetime_after=total_lifetime(improved),
    )
