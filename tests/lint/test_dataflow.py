"""The fixed-point dataflow engine and the static bound built on it.

Three layers of evidence:

* unit tests drive the worklist engine directly (directions, may/must
  confluence, widening, and a pinned visit count on a pathological
  multi-SCC kernel);
* the modulo-II longest-path analysis is compared against the
  pipeline's own recurrence bound (it must converge exactly at
  :func:`repro.ddg.mii.rec_mii` and widen one cycle below it);
* ``pressure_floor`` is differentially validated on the bundled corpus
  against the real MVE allocator.
"""

from repro.core import compile_loop
from repro.ddg import Ddg, Opcode, rec_mii, trivial_annotation
from repro.lint.dataflow import (
    BACKWARD,
    NEG_INF,
    POS_INF,
    BoolLattice,
    DataflowProblem,
    LongestPathLattice,
    SetLattice,
    cluster_reachability,
    dead_values,
    longest_paths,
    pressure_floor,
    solve,
    solve_ddg,
)
from repro.machine import (
    ClusterSpec,
    Machine,
    PointToPointInterconnect,
    gp_units,
)
from repro.regalloc.mve import allocate_mve
from repro.workloads import bundled_corpus


class TestEngine:
    def test_forward_reachability(self):
        # 0 -> 1 -> 2, 3 isolated: reachability from node 0.
        edges = [(0, 1, 1, 0), (1, 2, 1, 0)]
        problem = DataflowProblem(
            lattice=BoolLattice, init=lambda n: n == 0
        )
        values = solve([0, 1, 2, 3], edges, problem).values
        assert values == {0: True, 1: True, 2: True, 3: False}

    def test_backward_direction_flips_the_flow(self):
        edges = [(0, 1, 1, 0), (1, 2, 1, 0)]
        problem = DataflowProblem(
            lattice=BoolLattice, direction=BACKWARD,
            init=lambda n: n == 2,
        )
        values = solve([0, 1, 2], edges, problem).values
        assert values == {0: True, 1: True, 2: True}

    def test_must_confluence_meets_over_paths(self):
        # Diamond 0 -> {1, 2} -> 3; the edge out of 2 kills fact 1, so
        # a must-analysis denies it at the join point while the path
        # through 1 alone would have kept it.
        edges = [(0, 1, 1, 0), (0, 2, 1, 0), (1, 3, 1, 0), (2, 3, 1, 0)]
        problem = DataflowProblem(
            lattice=SetLattice((0, 1)),
            may=False,
            init=lambda n: frozenset((0, 1)),
            transfer=lambda spec, value: (
                value if spec[0] != 2 else value - {1}
            ),
        )
        values = solve([0, 1, 2, 3], edges, problem).values
        assert values[1] == frozenset((0, 1))
        assert values[2] == frozenset((0, 1))
        assert values[3] == frozenset((0,))

    def test_widening_detects_positive_cycle(self):
        # A self-loop of weight +1 pumps the path length forever.
        edges = [(0, 0, 1, 0)]
        problem = DataflowProblem(
            lattice=LongestPathLattice,
            init=lambda n: 0,
            transfer=lambda spec, value: value + 1,
            widen=True,
        )
        result = solve([0], edges, problem)
        assert not result.converged
        assert result.values[0] == POS_INF

    def test_scc_ordering_feeds_downstream_components(self):
        # Two 2-cycles bridged by one edge; the downstream SCC must see
        # the upstream fixed point, not its initial value.
        edges = [
            (0, 1, 1, 0), (1, 0, 1, 1),
            (1, 2, 1, 0),
            (2, 3, 1, 0), (3, 2, 1, 1),
        ]
        values = longest_paths([0, 1, 2, 3], edges, (0,), ii=2)
        assert values == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_visit_count_pinned_on_pathological_multi_scc_kernel(self):
        # Three 3-cycles in a chain, solved at the II where every cycle
        # has weight exactly zero -- the worst convergent case: values
        # keep circulating until each SCC's longest entry path wins.
        # The FIFO worklist (seeded in ascending node order) makes the
        # visit count a deterministic function of the graph, so pin it:
        # a regression here means the iteration strategy changed.
        graph = Ddg(name="pathological")
        nodes = [graph.add_node(Opcode.ALU) for _ in range(9)]
        for base in (0, 3, 6):
            graph.add_edge(nodes[base], nodes[base + 1], distance=0)
            graph.add_edge(nodes[base + 1], nodes[base + 2], distance=0)
            graph.add_edge(nodes[base + 2], nodes[base], distance=1)
        graph.add_edge(nodes[2], nodes[3], distance=0)
        graph.add_edge(nodes[5], nodes[6], distance=0)

        view = graph.view()
        source = {nodes[0]}
        problem = DataflowProblem(
            lattice=LongestPathLattice,
            init=lambda n: 0 if n in source else NEG_INF,
            transfer=lambda spec, value: (
                NEG_INF if value == NEG_INF
                else value + spec[2] - 3 * spec[3]
            ),
            widen=True,
        )
        result = solve_ddg(graph, problem)
        assert result.converged
        assert result.scc_count == 3
        assert result.values[nodes[8]] == 8
        assert result.node_visits == 12
        # And again: the count is deterministic, not merely stable.
        repeat = solve(view.node_ids, view.edge_array, problem)
        assert repeat.node_visits == result.node_visits


class TestLiveness:
    def test_dead_chain_is_flagged_whole(self):
        graph = Ddg(name="dead-chain")
        load = graph.add_node(Opcode.LOAD, name="ld")
        alu = graph.add_node(Opcode.ALU, name="a")
        dead1 = graph.add_node(Opcode.ALU, name="d1")
        dead2 = graph.add_node(Opcode.ALU, name="d2")
        store = graph.add_node(Opcode.STORE, name="st")
        graph.add_edge(load, alu)
        graph.add_edge(alu, store)
        graph.add_edge(load, dead1)
        graph.add_edge(dead1, dead2)
        assert sorted(dead_values(graph)) == [dead1, dead2]

    def test_unread_accumulator_is_dead(self):
        # A self-recurrence alone does not keep a value alive.
        graph = Ddg(name="spinner")
        acc = graph.add_node(Opcode.FP_ADD, name="acc")
        graph.add_edge(acc, acc, distance=1)
        assert dead_values(graph) == [acc]

    def test_stored_accumulator_is_live(self, accumulator):
        graph = accumulator
        store = graph.add_node(Opcode.STORE, name="st")
        acc = graph.node_ids[1]
        graph.add_edge(acc, store)
        assert dead_values(graph) == []

    def test_corpus_loops_mostly_live(self, two_gp):
        flagged = sum(
            1 for ddg in bundled_corpus() if dead_values(ddg)
        )
        # The synthetic generator leaves a few dangling producers; the
        # analysis must not blow that up into whole-corpus noise.
        assert flagged < len(list(bundled_corpus())) / 2


class TestClusterReachability:
    def test_bus_reaches_everything(self, two_gp):
        senders = cluster_reachability(two_gp)
        assert senders[0] == frozenset((0, 1))
        assert senders[1] == frozenset((0, 1))

    def test_point_to_point_closure_is_transitive(self):
        machine = Machine(
            clusters=tuple(
                ClusterSpec(i, gp_units(2)) for i in range(3)
            ),
            interconnect=PointToPointInterconnect(
                links=[(0, 1), (1, 2)]
            ),
            name="chain3p2p",
        )
        senders = cluster_reachability(machine)
        assert 0 in senders[2]  # two hops, carried by a copy chain

    def test_disconnected_cluster_reaches_only_itself(self):
        machine = Machine(
            clusters=tuple(
                ClusterSpec(i, gp_units(2)) for i in range(3)
            ),
            interconnect=PointToPointInterconnect(links=[(0, 1)]),
            name="islanded",
        )
        senders = cluster_reachability(machine)
        assert senders[2] == frozenset((2,))


def _recurrence_feasible(graph, ii):
    """Whether the longest-path analysis converges at ``ii``."""
    view = graph.view()
    return longest_paths(
        view.node_ids, view.edge_array, view.node_ids, ii
    ) is not None


class TestRecMii:
    def test_agrees_with_pipeline_on_fixtures(
        self, intro_example, chain3, accumulator
    ):
        for graph in (intro_example, chain3, accumulator):
            bound = rec_mii(graph)
            assert _recurrence_feasible(graph, bound), graph.name
            if bound:
                assert not _recurrence_feasible(graph, bound - 1)

    def test_agrees_with_pipeline_on_corpus(self):
        for ddg in list(bundled_corpus())[:16]:
            bound = rec_mii(ddg)
            assert _recurrence_feasible(ddg, bound), ddg.name
            if bound:
                assert not _recurrence_feasible(ddg, bound - 1), ddg.name

    def test_zero_distance_cycle_rejected(self):
        graph = Ddg(name="combinational")
        a = graph.add_node(Opcode.ALU)
        b = graph.add_node(Opcode.ALU)
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=0)
        # No II relaxes a cycle that never crosses an iteration.
        assert not _recurrence_feasible(graph, 10_000)


class TestPressureFloor:
    def test_simple_chain_floor(self, chain3, uni8):
        annotated = trivial_annotation(chain3, uni8)
        floors = pressure_floor(annotated, ii=1)
        # ld (latency 2) feeds mul, mul (latency 3) feeds st: two live
        # values on cluster 0; each holds >= 1 full II.
        assert floors is not None
        assert floors[0] >= 2

    def test_infeasible_ii_returns_none(self, accumulator, uni8):
        annotated = trivial_annotation(accumulator, uni8)
        assert pressure_floor(annotated, ii=0) is None

    def test_floor_below_real_allocation_on_corpus(self, two_gp):
        # The floor holds for EVERY schedule at the II, so the real
        # allocator's per-cluster usage can never dip beneath it.
        checked = 0
        for ddg in list(bundled_corpus())[:16]:
            compiled = compile_loop(ddg, two_gp)
            floors = pressure_floor(compiled.annotated, compiled.ii)
            assert floors is not None, ddg.name
            allocation = allocate_mve(compiled.schedule)
            for cluster, floor in floors.items():
                assert floor <= allocation.registers(cluster), (
                    f"{ddg.name}: cluster {cluster} floor {floor} > "
                    f"allocated {allocation.registers(cluster)}"
                )
                checked += 1
        assert checked
