"""Synthetic loop DDG generation calibrated to the paper's Table 1.

The original 1327 loops (Perfect Club, SPEC-89, Livermore FORTRAN
Kernels, compiled by the Cydra 5 Fortran77 compiler) are proprietary and
unavailable; this generator produces a population with matching published
statistics:

=========================  ====  =====  ====
Statistic                  Min   Avg    Max
=========================  ====  =====  ====
Nodes                      2     17.5   161
SCCs per loop              0     0.4    6
Nodes in non-trivial SCCs  2     9.0    48
Edges                      1     22.5   232
=========================  ====  =====  ====

Structure mirrors what the Cydra pre-passes leave behind: a single basic
block of dataflow where loads feed arithmetic feeds stores, about 23 % of
loops carrying recurrences (301 of 1327), recurrences built as chains of
value operations closed by a distance-1 or distance-2 back edge, and one
loop-closing branch fed by induction arithmetic.

Everything is driven by an explicit :class:`random.Random` so suites are
fully deterministic given a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..ddg.graph import Ddg
from ..ddg.opcodes import Opcode, produces_value


@dataclass(frozen=True)
class GeneratorProfile:
    """Calibration knobs of the synthetic generator.

    Defaults reproduce the paper's Table 1 statistics; tests assert the
    achieved population statistics stay inside tolerance bands.
    """

    #: Log-normal node-count distribution (median = exp(mu)).
    node_mu: float = math.log(12.2)
    node_sigma: float = 0.82
    node_min: int = 2
    node_max: int = 161

    #: Fraction of loops containing at least one non-trivial SCC
    #: (301 / 1327 in the paper's suite).
    scc_loop_fraction: float = 301.0 / 1327.0
    #: Extra SCCs beyond the first, geometric continuation probability,
    #: calibrated so the overall mean is ~0.4 SCCs per loop.
    scc_continue_probability: float = 0.52
    scc_max_per_loop: int = 6
    #: SCC chain length distribution (nodes per recurrence chain).
    scc_len_mean: float = 6.2
    scc_len_max: int = 24
    #: Cap on total recurrence nodes per loop (Table 1 max is 48).
    scc_nodes_cap: int = 48

    #: Predecessor count distribution of a non-source node.
    pred_weights: Tuple[float, ...] = (0.72, 0.23, 0.05)

    #: Opcode mix for interior (arithmetic) nodes.
    arith_mix: Tuple[Tuple[Opcode, float], ...] = (
        (Opcode.ALU, 0.42),
        (Opcode.SHIFT, 0.06),
        (Opcode.FP_ADD, 0.25),
        (Opcode.FP_MULT, 0.22),
        (Opcode.FP_DIV, 0.04),
        (Opcode.FP_SQRT, 0.01),
    )
    #: Fraction of nodes that are loads (sources) and stores (sinks).
    load_fraction: float = 0.24
    store_fraction: float = 0.11
    #: Probability that the loop carries an explicit back branch.
    branch_probability: float = 0.85
    #: Probability of one extra store→load memory ordering edge.
    memory_edge_probability: float = 0.25


def _reaching_set(ddg: Ddg, target: int) -> set:
    """Node ids from which ``target`` is reachable (including itself)."""
    reached = {target}
    stack = [target]
    while stack:
        node = stack.pop()
        for edge in ddg.in_edges(node):
            if edge.src not in reached:
                reached.add(edge.src)
                stack.append(edge.src)
    return reached


def _weighted_choice(
    rng: random.Random, pairs: Sequence[Tuple[Opcode, float]]
) -> Opcode:
    """Pick an opcode by weight."""
    total = sum(weight for _, weight in pairs)
    roll = rng.random() * total
    acc = 0.0
    for opcode, weight in pairs:
        acc += weight
        if roll <= acc:
            return opcode
    return pairs[-1][0]


def _draw_node_count(rng: random.Random, profile: GeneratorProfile) -> int:
    """Log-normal node count, clipped to the paper's observed range."""
    value = int(round(rng.lognormvariate(profile.node_mu, profile.node_sigma)))
    return max(profile.node_min, min(profile.node_max, value))


def _draw_scc_plan(
    rng: random.Random, profile: GeneratorProfile, n_nodes: int
) -> List[int]:
    """Chain lengths of the recurrences this loop will carry (possibly
    empty)."""
    if n_nodes < 2 or rng.random() >= profile.scc_loop_fraction:
        return []
    lengths: List[int] = []
    while True:
        length = 2 + int(rng.expovariate(1.0 / max(profile.scc_len_mean - 2, 0.5)))
        length = min(length, profile.scc_len_max, n_nodes)
        lengths.append(length)
        if len(lengths) >= profile.scc_max_per_loop:
            break
        if rng.random() >= profile.scc_continue_probability:
            break
    return lengths


def _fit_scc_plan(lengths: List[int], available: int) -> List[int]:
    """Shrink a recurrence plan to fit ``available`` interior nodes.

    Keeps as many chains as possible (each needs >= 2 nodes), trimming the
    longest chains first, so small loops still realize their drawn SCC
    count whenever they can.
    """
    plan = sorted(lengths, reverse=True)
    while plan and sum(plan) > available:
        if plan[0] > 2:
            plan[0] -= 1
            plan.sort(reverse=True)
        else:
            plan.pop()
    return plan


def generate_loop(
    rng: random.Random,
    profile: GeneratorProfile = GeneratorProfile(),
    name: str = "",
    n_nodes: Optional[int] = None,
) -> Ddg:
    """Generate one synthetic innermost-loop DDG.

    Nodes are created in a topological order: early positions are loads,
    late positions stores (plus an optional branch), interior positions
    arithmetic.  Dataflow edges connect each node to one-to-three earlier
    value producers with a locality bias; recurrences are chains of
    consecutive value nodes closed by a loop-carried back edge.
    """
    if n_nodes is None:
        n_nodes = _draw_node_count(rng, profile)
    n_nodes = max(2, n_nodes)

    # Recurrence plan is drawn up front: loops carrying recurrences are
    # grown, when needed, so their chains fit (in the real suite the
    # recurrence-bearing loops skew larger than the average loop).
    scc_plan = _draw_scc_plan(rng, profile, n_nodes)
    if scc_plan:
        n_nodes = min(
            profile.node_max, max(n_nodes, sum(scc_plan) + 4)
        )

    # --- opcode layout -------------------------------------------------
    n_loads = max(1, int(round(n_nodes * profile.load_fraction)))
    n_stores = max(1, int(round(n_nodes * profile.store_fraction)))
    has_branch = n_nodes >= 4 and rng.random() < profile.branch_probability
    n_tail = n_stores + (1 if has_branch else 0)
    while n_loads + n_tail > n_nodes:
        if n_loads > 1:
            n_loads -= 1
        elif n_stores > 1:
            n_stores -= 1
            n_tail -= 1
        else:
            has_branch = False
            n_tail = n_stores
    opcodes: List[Opcode] = [Opcode.LOAD] * n_loads
    for _ in range(n_nodes - n_loads - n_tail):
        opcodes.append(_weighted_choice(rng, profile.arith_mix))
    opcodes.extend([Opcode.STORE] * n_stores)
    if has_branch:
        opcodes.append(Opcode.BRANCH)

    ddg = Ddg(name=name)
    ids = [ddg.add_node(op, name=f"{op.value}{i}") for i, op in enumerate(opcodes)]
    makes_value = [produces_value(op) for op in opcodes]

    # --- forward dataflow ----------------------------------------------
    edge_set = set()

    def add_edge(src: int, dst: int, distance: int) -> None:
        if (src, dst, distance) not in edge_set:
            edge_set.add((src, dst, distance))
            ddg.add_edge(src, dst, distance=distance)

    weights = profile.pred_weights
    # The value producers before node ``i``, grown as ``i`` advances.
    pool: List[int] = []
    for i in range(1, n_nodes):
        if makes_value[i - 1]:
            pool.append(ids[i - 1])
        if not pool:
            continue
        n_preds = rng.choices(range(1, len(weights) + 1), weights=weights)[0]
        for _ in range(min(n_preds, len(pool))):
            # Locality bias: recent producers are more likely inputs.
            offset = int(rng.expovariate(1.0 / 4.0))
            src = pool[max(0, len(pool) - 1 - offset)]
            add_edge(src, ids[i], 0)

    # --- recurrences ----------------------------------------------------
    # Each planned recurrence takes a *disjoint* window of value nodes
    # (disjointness keeps the drawn SCC count: overlapping chains would
    # merge into one component).  Loads participate too — recurrences
    # through loads model pointer chasing and indexed reuse.
    interior = [i for i in range(n_nodes) if makes_value[i]]
    lengths = _fit_scc_plan(
        scc_plan, min(len(interior), profile.scc_nodes_cap)
    )
    cursor = 0
    for length in lengths:
        available = len(interior) - cursor
        if available < 2:
            break
        length = min(length, available)
        # A small random gap spreads recurrences over the loop body.
        gap_budget = available - length
        cursor += rng.randint(0, min(2, gap_budget)) if gap_budget else 0
        chain = interior[cursor:cursor + length]
        cursor += length
        for a, b in zip(chain, chain[1:]):
            add_edge(ids[a], ids[b], 0)
        distance = 1 if rng.random() < 0.8 else 2
        add_edge(ids[chain[-1]], ids[chain[0]], distance)

    # --- memory ordering ------------------------------------------------
    # A loop-carried store→load dependence models a cross-iteration
    # memory reuse; it must not close an accidental recurrence, so only
    # loads that do not (transitively) feed the chosen store qualify.
    if rng.random() < profile.memory_edge_probability:
        stores = [i for i in range(n_nodes) if opcodes[i] is Opcode.STORE]
        loads = [i for i in range(n_nodes) if opcodes[i] is Opcode.LOAD]
        if stores and loads:
            store = rng.choice(stores)
            reaches_store = _reaching_set(ddg, ids[store])
            safe_loads = [i for i in loads if ids[i] not in reaches_store]
            if safe_loads:
                add_edge(ids[store], ids[rng.choice(safe_loads)], 1)

    # Guarantee at least one edge (Table 1: min edges = 1).
    if ddg.edge_count() == 0:
        # ``pool`` still holds the value producers before the last node.
        if pool:
            add_edge(pool[-1], ids[n_nodes - 1], 0)
        else:
            add_edge(ids[0], ids[n_nodes - 1], 0)

    return ddg


def generate_suite(
    n_loops: int,
    seed: int = 1998,
    profile: GeneratorProfile = GeneratorProfile(),
) -> List[Ddg]:
    """Generate a deterministic suite of ``n_loops`` synthetic loops."""
    rng = random.Random(seed)
    return [
        generate_loop(rng, profile, name=f"synth{i:04d}")
        for i in range(n_loops)
    ]
