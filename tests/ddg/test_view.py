"""Compiled DDG views: caching, invalidation, and adjacency content."""

import pytest

from repro import obs
from repro.core.driver import compile_loop
from repro.ddg import Ddg, DdgView, Opcode, build_ddg, scc_components
from repro.ddg.mii import mii, rec_mii, rec_mii_exceeds
from repro.ddg.scc import find_sccs
from repro.ddg.validate import validate_loop
from repro.machine.presets import four_cluster_grid, two_cluster_gp
from repro.workloads import paper_suite


@pytest.fixture
def recurrence():
    """a -> b -> c with recurrence c -> a at distance 1, plus a free d."""
    return build_ddg(
        ops=[
            ("a", Opcode.ALU),
            ("b", Opcode.LOAD),
            ("c", Opcode.ALU),
            ("d", Opcode.ALU),
        ],
        deps=[
            ("a", "b", 0),
            ("b", "c", 0),
            ("c", "a", 1),
            ("a", "d", 0),
        ],
    )


class TestViewCaching:
    def test_view_is_cached_until_mutation(self, recurrence):
        first = recurrence.view()
        assert recurrence.view() is first

    def test_add_node_invalidates(self, recurrence):
        first = recurrence.view()
        recurrence.add_node(Opcode.ALU)
        second = recurrence.view()
        assert second is not first
        assert second.version != first.version

    def test_add_edge_invalidates(self, recurrence):
        first = recurrence.view()
        recurrence.add_edge(1, 3, distance=0)
        assert recurrence.view() is not first

    def test_rebuild_counter(self, recurrence):
        with obs.tracing() as trace:
            recurrence.view()
            recurrence.view()  # cached, no rebuild
            recurrence.add_node(Opcode.ALU)
            recurrence.view()
        assert trace.counter("ddg.view_rebuilds") == 2

    def test_copy_does_not_share_view(self, recurrence):
        original = recurrence.view()
        clone = recurrence.copy()
        assert clone.view() is not original


class TestViewContent:
    def test_adjacency_matches_graph_accessors(self, recurrence):
        view = recurrence.view()
        for node_id in recurrence.node_ids:
            assert list(view.successors[node_id]) == \
                recurrence.successors(node_id)
            assert list(view.predecessors[node_id]) == \
                recurrence.predecessors(node_id)

    def test_edge_array_preserves_insertion_order(self, recurrence):
        view = recurrence.view()
        expected = [
            (e.src, e.dst, recurrence.latency(e.src), e.distance)
            for e in recurrence.edges
        ]
        assert list(view.edge_array) == expected

    def test_dependence_specs_match_graph_edges(self, recurrence):
        recurrence.add_edge(1, 1, distance=2)
        view = recurrence.view()
        for node_id in recurrence.node_ids:
            assert view.in_specs[node_id] == tuple(
                (e.src, recurrence.latency(e.src), e.distance)
                for e in recurrence.in_edges(node_id)
            )
            assert view.out_specs[node_id] == tuple(
                (e.dst, e.distance) for e in recurrence.out_edges(node_id)
            )

    def test_latency_and_value_maps(self, recurrence):
        view = recurrence.view()
        for node_id in recurrence.node_ids:
            assert view.latency[node_id] == recurrence.latency(node_id)
            node = recurrence.node(node_id)
            assert view.produces_value[node_id] == node.produces_value


class TestSccComponents:
    def test_components_found(self, recurrence):
        components = scc_components(recurrence)
        assert [frozenset(c) for c in components] == [frozenset({0, 1, 2})]

    def test_self_loop_is_component(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        graph.add_edge(a, a, distance=1)
        assert [frozenset(c) for c in scc_components(graph)] == [
            frozenset({a})
        ]

    def test_components_cached_on_view(self, recurrence):
        first = scc_components(recurrence)
        assert scc_components(recurrence) is first


class TestRecMiiMemoization:
    def test_repeat_rec_mii_hits_cache(self, recurrence):
        with obs.tracing() as trace:
            first = rec_mii(recurrence)
            second = rec_mii(recurrence)
        assert first == second == 4  # (1 + 2 + 1) / 1
        assert trace.counter("mii.recmii_cache_hits") >= 1

    def test_exceeds_agrees_with_exact(self, recurrence):
        exact = rec_mii(recurrence)
        fresh = recurrence.copy()
        for ii in range(1, exact + 3):
            assert rec_mii_exceeds(fresh, ii) == (exact > ii)

    def test_exceeds_probes_promote_to_exact(self, recurrence):
        # Walk candidate IIs upward like the Figure-5 driver does; the
        # first threshold query stores the exact value, so the exact
        # request afterwards is a cache hit.
        for ii in range(1, 5):
            rec_mii_exceeds(recurrence, ii)
        with obs.tracing() as trace:
            assert rec_mii(recurrence) == 4
        assert trace.counter("mii.recmii_cache_hits") >= 1

    def test_mutation_invalidates_memo(self, recurrence):
        assert rec_mii(recurrence) == 4
        # Second recurrence b -> b over the load doubles nothing but the
        # graph version; the memo must not leak across versions.
        recurrence.add_edge(1, 1, distance=2)
        assert rec_mii(recurrence) == 4

    def test_zero_distance_cycle_still_raises(self):
        graph = Ddg()
        a = graph.add_node(Opcode.ALU)
        b = graph.add_node(Opcode.ALU)
        graph.add_edge(a, b, distance=0)
        graph.add_edge(b, a, distance=0)
        with pytest.raises(ValueError):
            rec_mii(graph)
        with pytest.raises(ValueError):
            rec_mii_exceeds(graph, 1)


#: The view's mutable memos (owned by repro.ddg.mii and repro.ddg.scc).
MEMOS = ("partition", "recmii_exact", "recmii_validated", "demand")


def _wide_2gp_loop() -> Ddg:
    """Six independent load-multiply-store chains: more operations than
    one cluster issues per II, so 2gp needs copies at the first II."""
    ops, deps = [], []
    for i in range(6):
        ops += [(f"ld{i}", Opcode.LOAD), (f"mul{i}", Opcode.FP_MULT),
                (f"st{i}", Opcode.STORE)]
        deps += [(f"ld{i}", f"mul{i}", 0), (f"mul{i}", f"st{i}", 0)]
    ops.append(("sum", Opcode.FP_ADD))
    deps += [(f"mul{i}", "sum", 0) for i in range(6)]
    deps.append(("sum", "sum", 1))
    return build_ddg(ops=ops, deps=deps, name="wide")


def _retried_2gp_loop() -> Ddg:
    """A suite loop whose 2gp compile reaches the scheduler twice: the
    attempt at its MII assigns but does not schedule."""
    loop = paper_suite(441, 1998)[-1]
    assert loop.name == "synth0396"
    return loop


class TestKernelView:
    """The kernel graph's view is derived from the input's, not built."""

    @pytest.mark.parametrize("make_loop, schedules", [
        (_wide_2gp_loop, 1),
        (_retried_2gp_loop, 2),
    ], ids=["one-schedule", "two-schedules"])
    def test_plain_compile_builds_one_view(self, make_loop, schedules):
        with obs.tracing() as trace:
            compiled = compile_loop(make_loop(), two_cluster_gp())
        assert compiled.copy_count > 0
        assert len(trace.find("schedule")) == schedules
        assert trace.counter("ddg.view_rebuilds") == 1

    def test_mutated_kernel_rebuilds(self):
        compiled = compile_loop(_retried_2gp_loop(), two_cluster_gp())
        kernel = compiled.annotated.ddg
        derived = kernel.view()
        assert derived.version == kernel.version
        with obs.tracing() as trace:
            assert kernel.view() is derived
            kernel.add_node(Opcode.ALU)
            rebuilt = kernel.view()
        assert rebuilt is not derived
        assert rebuilt.version == kernel.version
        assert trace.counter("ddg.view_rebuilds") == 1

    @pytest.mark.parametrize("machine_factory", [
        two_cluster_gp, four_cluster_grid,
    ], ids=["2gp", "grid"])
    def test_compile_leaves_input_view_unchanged(self, machine_factory):
        machine = machine_factory()
        for loop in paper_suite(60, 1998):
            # What compile_loop computes on the input before attempt 1,
            # plus the SCC partition the assignment order reads.
            validate_loop(loop, machine)
            mii(loop, machine)
            find_sccs(loop)
            view = loop.view()
            before = {
                slot: _snapshot(getattr(view, slot))
                for slot in DdgView.__slots__
            }
            kernel = compile_loop(loop, machine).annotated.ddg.view()
            assert loop.view() is view, loop.name
            for slot in DdgView.__slots__:
                assert _snapshot(getattr(view, slot)) == before[slot], (
                    loop.name, slot)
            for slot in MEMOS:
                memo = getattr(kernel, slot)
                assert memo is None or memo is not getattr(view, slot), (
                    loop.name, slot)


def _snapshot(value):
    """An equal copy of a view field that a later write cannot reach."""
    if isinstance(value, dict):
        return list(value.items())
    if isinstance(value, set):
        return set(value)
    return value
