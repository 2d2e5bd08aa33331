"""Property-based tests: every produced schedule is valid and bounded."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import reference_compile_loop
from repro.certify import certify_compiled
from repro.core import ALL_VARIANTS, compile_loop
from repro.ddg import mii, rec_mii
from repro.machine import (
    PAPER_GRID_MIX,
    STANDARD_PRESETS,
    heterogeneous_gp,
    ring_machine,
    two_cluster_gp,
)
from repro.scheduling import check_schedule
from repro.workloads import GeneratorProfile, generate_loop

#: Every named preset, plus a 5-cluster ring and a lopsided bused pair.
MACHINES = [
    *(build() for build in STANDARD_PRESETS.values()),
    ring_machine(5, PAPER_GRID_MIX),
    heterogeneous_gp([6, 2], buses=2, ports=1),
]


@st.composite
def loop_and_machine(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    machine = draw(st.sampled_from(MACHINES))
    rng = random.Random(seed)
    return generate_loop(rng, GeneratorProfile()), machine


class TestScheduleProperties:
    @given(loop_and_machine())
    @settings(max_examples=50, deadline=None)
    def test_compiled_schedule_has_no_violations(self, case):
        ddg, machine = case
        result = compile_loop(ddg, machine)
        assert check_schedule(result.schedule) == []

    @given(loop_and_machine())
    @settings(max_examples=50, deadline=None)
    def test_ii_at_least_unified_mii(self, case):
        ddg, machine = case
        result = compile_loop(ddg, machine)
        assert result.ii >= mii(ddg, machine.unified_equivalent())

    @given(loop_and_machine())
    @settings(max_examples=40, deadline=None)
    def test_annotated_recmii_within_final_ii(self, case):
        ddg, machine = case
        result = compile_loop(ddg, machine)
        assert rec_mii(result.annotated.ddg) <= result.ii

    @given(loop_and_machine())
    @settings(max_examples=30, deadline=None)
    def test_copies_only_on_clustered_edges(self, case):
        ddg, machine = case
        result = compile_loop(ddg, machine)
        annotated = result.annotated
        for copy_id in annotated.copy_nodes:
            src_cluster = annotated.cluster_of[copy_id]
            for target in annotated.copy_targets[copy_id]:
                assert target != src_cluster
                assert machine.interconnect.reachable(src_cluster, target)

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=25, deadline=None)
    def test_all_variants_valid_when_they_succeed(self, seed):
        rng = random.Random(seed)
        ddg = generate_loop(rng, GeneratorProfile())
        machine = two_cluster_gp()
        for config in ALL_VARIANTS:
            result = compile_loop(ddg, machine, config=config)
            assert check_schedule(result.schedule) == []


class TestEveryMachine:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_certified_and_identical_to_reference(self, seed):
        ddg = generate_loop(random.Random(seed), GeneratorProfile())
        for machine in MACHINES:
            result = compile_loop(ddg, machine)
            artifact = certify_compiled(result)
            assert artifact.ok, (machine.name, artifact.issues[:3])
            reference = reference_compile_loop(ddg, machine)
            assert result.ii == reference.ii, machine.name
            assert result.copy_count == reference.copy_count, machine.name
            assert result.schedule.start == reference.start, machine.name


class TestDeterminismProperty:
    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=25, deadline=None)
    def test_compilation_is_deterministic(self, seed):
        rng1, rng2 = random.Random(seed), random.Random(seed)
        ddg1 = generate_loop(rng1, GeneratorProfile())
        ddg2 = generate_loop(rng2, GeneratorProfile())
        machine = two_cluster_gp()
        r1 = compile_loop(ddg1, machine)
        r2 = compile_loop(ddg2, machine)
        assert r1.ii == r2.ii
        assert r1.copy_count == r2.copy_count
        assert r1.schedule.start == r2.schedule.start
