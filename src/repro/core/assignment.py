"""The cluster assignment phase (paper Section 4).

``assign_clusters`` runs one assignment attempt at a fixed candidate II:

1. **Order** — nodes of the most constraining SCCs first, SMS order
   within each set (:mod:`repro.core.ordering`).
2. **Tentative assignment and selection** — the next unassigned node is
   tentatively placed on every cluster by a read-only probe, which
   replays the implied copy replans on a scratch copy of the pools
   (:meth:`RoutingState.probe <repro.core.copies.RoutingState.probe>`);
   the outcomes feed the Figure 10 selection chain
   (:mod:`repro.core.selection`), and the winner is committed.
3. **Iteration** — when no cluster is feasible, the Figure 11 chain picks
   a cluster to force the node onto; nodes conflicting with the node's
   issue slot or its required copies are evicted and re-enter the work
   list (Section 4.3.1).  A per-node list of previously tried clusters
   discourages repetition (Section 4.3.2), and a placement budget bounds
   the effort — exhausting it signals the driver to retry at II + 1.
   A step that begins in a decision state an earlier step already began
   in proves the attempt is cycling, and ends it at once (see
   :meth:`_Assigner.run`).

Returns the annotated graph (original ops tagged with clusters, copies
inserted) or ``None`` when no valid assignment was found at this II.
Search events are counted on the trace only (``assign.*`` in
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from ..ddg.graph import Ddg
from ..ddg.opcodes import fu_class_of
from ..ddg.transform import AnnotatedDdg, trivial_annotation
from ..obs.trace import count as obs_count, span as obs_span
from ..machine.machine import Demand, Machine
from ..mrt.pool import ResourcePools
from .annotate import build_annotated
from .copies import ProducerFacts, RoutingState
from .ordering import AssignmentOrder, build_assignment_order
from .prediction import prediction_satisfied
from .selection import (
    CandidateInfo,
    select_best_cluster,
    select_failure_cluster,
)
from .variants import HEURISTIC_ITERATIVE, AssignmentConfig


#: What every candidate cluster of one step's node shares (see
#: :meth:`_Assigner._step_facts`).
StepFacts = Tuple[ProducerFacts, int, int]


class _Assigner:
    """Mutable state of one assignment attempt at a fixed II."""

    def __init__(
        self,
        ddg: Ddg,
        machine: Machine,
        ii: int,
        config: AssignmentConfig,
    ) -> None:
        self.ddg = ddg
        self.machine = machine
        self.ii = ii
        self.config = config
        self.order: AssignmentOrder = build_assignment_order(
            ddg, ii, scc_first=config.scc_first
        )
        self.pools = ResourcePools(machine, ii)
        self.routing = RoutingState(
            ddg, machine, self.pools,
            share_broadcast=config.share_broadcast,
        )
        self.unassigned: Set[int] = set(ddg.node_ids)
        self.nodes_on: Dict[int, Set[int]] = {
            c: set() for c in machine.cluster_indices
        }
        self.issue_held: Dict[int, Demand] = {}
        # Rule (A) history: node -> bitmask of the clusters it was
        # placed on since the history was last cleared.
        self.previously_on: Dict[int, int] = dict.fromkeys(ddg.node_ids, 0)
        self._all_clusters = (1 << machine.n_clusters) - 1
        # The decision state packed exactly into one int (see _pack),
        # packed at the attempt's first eviction and kept current from
        # then on.  It is None before: every step until then assigns
        # one more node, so no state can repeat (see _revisits).
        self.state: Optional[int] = None
        self._rank = self.order.rank
        self._history_shift = machine.n_clusters.bit_length()
        self._width = self._history_shift + machine.n_clusters
        #: Why :meth:`run` returned None: "cycle", "budget" or
        #: "abandoned"; for "cycle" also ``(step, period)``.
        self.stop: Optional[str] = None
        self.cycle: Optional[Tuple[int, int]] = None
        # State -> the step that began in it (see :meth:`_revisits`).
        self._began: Dict[int, int] = {}
        self.budget = max(config.budget_ratio * len(ddg), len(ddg) + 1)
        # Rank-keyed work heap over ``unassigned`` (lazy invalidation:
        # evicted nodes are pushed back, stale pops are skipped).  Ranks
        # are unique, so popping matches a min-scan bit for bit.
        self._ready: List[Tuple[int, int]] = [
            (self.order.priority_of(n), n) for n in self.order.order
        ]
        # Node -> per-cluster demand of its own issue slot, None where
        # the cluster structurally cannot execute the opcode.  The
        # vectors are the machine table's, shared and read-only.
        issue_demand = machine.resource_table.issue_demand
        self._op_demand: Dict[int, Tuple[Optional[Demand], ...]] = {
            node.node_id: issue_demand[fu_class_of(node.opcode)]
            for node in ddg.nodes
        }

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _record_history(self, node_id: int, cluster: int) -> None:
        """Rule (A) bookkeeping, with the clear-when-full rule."""
        old = self.previously_on[node_id]
        new = old | 1 << cluster
        if new == self._all_clusters:
            new = 1 << cluster
        self.previously_on[node_id] = new
        if self.state is not None:
            self.state += (new - old) << (
                self._rank[node_id] * self._width + self._history_shift
            )

    def _pack(self) -> int:
        """The decision state as one int: per node, the field at bit
        ``rank * _width`` holds its cluster + 1 (0 while unassigned) and,
        from bit ``_history_shift`` of the field up, its rule (A)
        history mask."""
        cluster_of = self.routing.cluster_of
        state = 0
        for node_id, rank in self._rank.items():
            field = (cluster_of.get(node_id, -1) + 1) | (
                self.previously_on[node_id] << self._history_shift
            )
            state |= field << (rank * self._width)
        return state

    # ------------------------------------------------------------------
    # Tentative evaluation
    # ------------------------------------------------------------------
    def _step_facts(self, node_id: int) -> StepFacts:
        """What every candidate cluster of the unassigned ``node_id``
        shares at this step: its producers' :data:`ProducerFacts`, the
        copies their plans hold now, and the bitmask of the clusters
        holding another member of its SCC."""
        producers = self.routing.producer_facts(node_id)
        held = 0
        for _, _, _, plan, _ in producers:
            if plan is not None:
                held += len(plan.specs)
        cluster_of = self.routing.cluster_of
        scc_mask = 0
        scc = self.order.scc_of(node_id)
        if scc is not None:
            for other in scc.nodes:
                cluster = cluster_of.get(other)
                if cluster is not None and other != node_id:
                    scc_mask |= 1 << cluster
        return producers, held, scc_mask

    def evaluate(
        self,
        node_id: int,
        cluster: int,
        facts: Optional[StepFacts] = None,
    ) -> CandidateInfo:
        """The Figure 10 selection inputs of placing the unassigned
        ``node_id`` on ``cluster``, measured without changing any state.

        The placement's issue slot and copy replans are replayed on a
        scratch copy of the pools (:meth:`RoutingState.probe`), stopping
        at the first plan that fails; free resources and MRC are read
        from the scratch counts.  ``facts`` is :meth:`_step_facts`'s for
        ``node_id``, gathered here when not given.
        """
        demand = self._op_demand[node_id][cluster]
        previously_here = (self.previously_on[node_id] >> cluster) & 1 == 1
        if demand is None:
            return CandidateInfo(
                cluster=cluster, feasible=False, shares_scc=False,
                prediction_ok=False, new_copies=0, free_resources=0,
                previously_here=previously_here, op_fits=False,
            )
        if facts is None:
            facts = self._step_facts(node_id)
        producers, held, scc_mask = facts
        feasible = False
        prediction_ok = True
        new_copies = 0
        free_resources = 0
        op_fits = self.pools.fits(demand)
        # When the op's own slot is full the placement fails before any
        # copy is planned.
        if op_fits:
            scratch = self.pools.copy()
            scratch.take(demand)
            failures, copies = self.routing.probe(
                node_id, cluster, producers, scratch
            )
            feasible = not failures
            if feasible:
                new_copies = sum(copies) - held
                if self.config.predict_copies:
                    # The producers on ``cluster`` once the node is
                    # placed (the node and its producers already there)
                    # count with their tentative copies and waits.
                    tentative = {
                        producer: (rc, waiting)
                        for (producer, home, _, _, waiting), rc
                        in zip(producers, copies)
                        if home == cluster or producer == node_id
                    }
                    prediction_ok = prediction_satisfied(
                        self.machine,
                        self.routing,
                        scratch,
                        cluster,
                        self.nodes_on[cluster],
                        tentative,
                    )
                free_resources = scratch.free_cluster_slots(cluster)
        return CandidateInfo(
            cluster=cluster,
            feasible=feasible,
            shares_scc=(scc_mask >> cluster) & 1 == 1,
            prediction_ok=prediction_ok,
            new_copies=new_copies,
            free_resources=free_resources,
            previously_here=previously_here,
            op_fits=op_fits,
        )

    def count_conflicts(
        self,
        node_id: int,
        cluster: int,
        facts: Optional[StepFacts] = None,
    ) -> int:
        """Figure 11 line 4: assigned neighbors whose required copies fail
        when ``node_id`` is put on ``cluster`` (resource shortages of the
        node's own slot are handled separately by eviction).

        Replays every copy replan of the placement on a scratch copy of
        the pools without the node's issue slot, counting each failure;
        a failed producer's old demand stays released for the producers
        after it.  No state changes.  ``facts`` as in :meth:`evaluate`.
        """
        if self._op_demand[node_id][cluster] is None:
            return len(self.ddg.node_ids)  # structurally impossible
        if facts is None:
            facts = self._step_facts(node_id)
        failures, _ = self.routing.probe(
            node_id, cluster, facts[0], self.pools.copy(), stop=False
        )
        return failures

    # ------------------------------------------------------------------
    # Committing and evicting
    # ------------------------------------------------------------------
    def commit(self, node_id: int, cluster: int) -> None:
        """Finalize a feasible assignment chosen by Figure 10."""
        demand = self._op_demand[node_id][cluster]
        if not self.pools.take(demand):
            raise self.pools.overflow_error(demand)
        self.routing.set_cluster(node_id, cluster)
        self.issue_held[node_id] = demand
        self.nodes_on[cluster].add(node_id)
        self.unassigned.discard(node_id)
        if self.state is not None:
            self.state += (cluster + 1) << (self._rank[node_id] * self._width)
        self._record_history(node_id, cluster)
        obs_count("assign.placements")

    def evict(self, node_id: int, protect: Set[int]) -> bool:
        """Remove a node from its cluster; it re-enters the work list.

        Replans every affected producer, evicting further nodes when a
        reshaped plan (possible on point-to-point fabrics) does not fit.
        Returns False when recovery is impossible at this II.
        """
        if self.state is None:
            self.state = self._pack()
        cluster = self.routing.cluster_of[node_id]
        self.pools.give(self.issue_held.pop(node_id))
        self.nodes_on[cluster].discard(node_id)
        self.routing.unassign_unplanned(node_id)
        self.unassigned.add(node_id)
        self.state -= (cluster + 1) << (self._rank[node_id] * self._width)
        heapq.heappush(
            self._ready, (self.order.priority_of(node_id), node_id)
        )
        obs_count("assign.evictions")
        for producer in self.routing.affected_producers(node_id):
            if not self._replan_or_evict(producer, protect):
                return False
        return True

    def _plan_victim(self, producer: int, protect: Set[int]) -> Optional[int]:
        """Node to evict so ``producer``'s copy plan can fit.

        The paper removes the *conflicting predecessor or successor*
        itself: when the failing producer is an ordinary neighbor we evict
        it directly; when it is protected (the node currently being
        force-assigned) we instead evict its lowest-priority consumer on a
        remote cluster, shrinking the plan.
        """
        home = self.routing.cluster_of.get(producer)
        if home is None:
            return None
        if producer not in protect:
            return producer
        remote_consumers = [
            consumer
            for consumer in self.routing.value_consumers(producer)
            if consumer not in protect
            and self.routing.cluster_of.get(consumer, home) != home
        ]
        if not remote_consumers:
            return None
        return max(remote_consumers, key=self.order.priority_of)

    def _replan_or_evict(self, producer: int, protect: Set[int]) -> bool:
        """Replan one producer, evicting conflicting nodes until it fits."""
        while not self.routing.replan(producer):
            victim = self._plan_victim(producer, protect)
            if victim is None:
                return False
            if victim == producer:
                return self.evict(producer, protect)
            if not self.evict(victim, protect):
                return False
        return True

    def _issue_victim(
        self, node_id: int, cluster: int, demand: Demand
    ) -> Optional[int]:
        """Lowest-priority node on ``cluster`` holding the pool ``node_id``
        needs for its own issue slot."""
        candidates = [
            other
            for other in self.nodes_on[cluster]
            if other != node_id and self.issue_held[other] == demand
        ]
        if not candidates:
            return None
        return max(candidates, key=self.order.priority_of)

    def force_assign(self, node_id: int, cluster: int) -> bool:
        """Figure 11 placement: make room on ``cluster`` by eviction.

        Returns False when no sequence of evictions can make the
        assignment fit (the driver then gives up at this II).
        """
        demand = self._op_demand[node_id][cluster]
        if demand is None:
            return False
        protect = {node_id}
        while not self.pools.fits(demand):
            victim = self._issue_victim(node_id, cluster, demand)
            if victim is None:
                return False
            if not self.evict(victim, protect):
                return False
        self.pools.take(demand)
        self.issue_held[node_id] = demand
        self.routing.assign_unplanned(node_id, cluster)
        self.nodes_on[cluster].add(node_id)
        self.unassigned.discard(node_id)
        if self.state is not None:
            self.state += (cluster + 1) << (self._rank[node_id] * self._width)
        for producer in self.routing.affected_producers(node_id):
            if not self._replan_or_evict(producer, protect):
                return False
        self._record_history(node_id, cluster)
        obs_count("assign.placements")
        return True

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _revisits(self, step: int) -> bool:
        """Note that ``step`` begins in the current state; True, noting
        the cycle, when an earlier step began in it too."""
        if self.state is None:
            return False
        first = self._began.setdefault(self.state, step)
        if first == step:
            return False
        self.cycle = (step, step - first)
        return True

    def run(self) -> Optional[AnnotatedDdg]:
        """Assign every node, or return None once the attempt has failed.

        It fails when no cluster can take a node (``stop`` "abandoned"),
        when the budget runs out ("budget"), or when a step begins in a
        state that an earlier step began in ("cycle").  The cycle stop is
        exact: every decision is a function of ``self.state`` alone.
        The heap yields the min-rank unassigned node; at a step boundary
        the copy plans and pool counts follow from the cluster map; and
        every tie-break is a max over unique ranks.  So the steps since
        the earlier one would repeat until the budget ran out.
        """
        step = 0
        while self.unassigned:
            step += 1
            if self._revisits(step):
                self.stop = "cycle"
                obs_count("assign.cycle_stops")
                return None
            if self.budget <= 0:
                self.stop = "budget"
                obs_count("assign.budget_exhausted")
                return None
            self.budget -= 1
            obs_count("assign.budget_spent")
            while True:
                _, node_id = heapq.heappop(self._ready)
                if node_id in self.unassigned:
                    break
            facts = self._step_facts(node_id)
            candidates = [
                self.evaluate(node_id, cluster, facts)
                for cluster in self.machine.cluster_indices
            ]
            obs_count("assign.evaluations", len(candidates))
            infeasible = sum(1 for c in candidates if not c.feasible)
            if infeasible:
                obs_count("assign.infeasible_evaluations", infeasible)
            chosen = select_best_cluster(
                candidates,
                node_in_scc=self.order.scc_of(node_id) is not None,
                use_heuristic=self.config.use_heuristic,
            )
            if chosen is not None:
                obs_count("assign.select.committed")
                self.commit(node_id, chosen)
                continue
            if not self.config.iterative:
                self.stop = "abandoned"
                obs_count("assign.select.abandoned")
                return None
            with_conflicts = [
                c._replace(
                    conflicts=self.count_conflicts(node_id, c.cluster, facts)
                )
                for c in candidates
            ]
            forced = select_failure_cluster(with_conflicts)
            if forced is None or not self.force_assign(node_id, forced):
                self.stop = "abandoned"
                obs_count("assign.select.abandoned")
                return None
            obs_count("assign.select.forced")

        return build_annotated(
            self.ddg,
            self.machine,
            self.routing.cluster_of,
            self.routing.plans(),
        )


def assign_clusters(
    ddg: Ddg,
    machine: Machine,
    ii: int,
    config: AssignmentConfig = HEURISTIC_ITERATIVE,
) -> Optional[AnnotatedDdg]:
    """Run one assignment attempt at candidate ``ii``.

    For a unified machine the assignment is trivial (everything on the
    single cluster, no copies).  For clustered machines, returns the
    annotated graph or None when no valid assignment was found at this II.
    """
    if len(ddg) == 0:
        raise ValueError("cannot assign an empty graph")
    if machine.is_unified:
        return trivial_annotation(ddg, machine)
    with obs_span("assign", ii=ii) as assign_span:
        assigner = _Assigner(ddg, machine, ii, config)
        annotated = assigner.run()
        succeeded = annotated is not None
        assign_span.note(
            succeeded=succeeded,
            copies=assigner.routing.total_copies() if succeeded else 0,
        )
        if assigner.stop is not None:
            assign_span.note(stop=assigner.stop)
        if assigner.cycle is not None:
            assign_span.note(
                cycle_step=assigner.cycle[0],
                cycle_period=assigner.cycle[1],
            )
    return annotated
