"""Per-attempt audit: every assignment attempt against the frozen assigner.

The assigner ends a failing attempt the first time a step begins in a
decision state that an earlier step began in; the frozen reference
(``repro.baselines.reference_assign_clusters``) always spends the full
budget.  At every II that ``compile_loop`` tried, from the unified MII
to the final II, both must fail, or both must give the same cluster map
and copy count.  Only the iterative variants are audited: the others
never evict, so they never revisit a state.

Where both succeed, the kernel graph the assigner derives from the
input graph must equal the one the frozen reference rebuilds node by
node (``reference_build_annotated``): the same records in the same
order, a view equal to ``build_view`` of the rebuilt graph field by
field (dict key order included), the SCCs Tarjan finds there, and the
reference RecMII.

The loops are those of ``test_differential_reference.py``:
``REPRO_SUITE_SIZE`` scales the synthetic corpus slice (default 60).
CI runs the audit on the full 1327-loop corpus::

    REPRO_SUITE_SIZE=1327 PYTHONHASHSEED=0 PYTHONPATH=src \\
        python -m pytest tests/integration/test_attempt_audit.py -q
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.baselines import reference_assign_clusters, reference_rec_mii
from repro.core.assignment import assign_clusters
from repro.core.driver import compile_loop
from repro.core.variants import HEURISTIC_ITERATIVE, SIMPLE_ITERATIVE
from repro.ddg.mii import rec_mii
from repro.ddg.view import build_view, cyclic_components, scc_components
from repro.machine.presets import four_cluster_grid, two_cluster_gp

from .test_differential_reference import _loops


@pytest.fixture(scope="module")
def loops():
    # paper_suite leads with the kernels; keep each loop once.
    unique = {}
    for ddg in _loops():
        unique.setdefault(ddg.name, ddg)
    return list(unique.values())


@pytest.mark.parametrize(
    "config", [HEURISTIC_ITERATIVE, SIMPLE_ITERATIVE],
    ids=["heuristic-iterative", "simple-iterative"],
)
@pytest.mark.parametrize(
    "machine_factory", [two_cluster_gp, four_cluster_grid],
    ids=["2gp", "grid"],
)
def test_every_attempt_matches_the_full_budget(
    machine_factory, config, loops
) -> None:
    machine = machine_factory()
    with obs.tracing() as trace:
        for ddg in loops:
            compiled = compile_loop(ddg, machine, config)
            for ii in range(compiled.mii, compiled.ii + 1):
                ours = assign_clusters(ddg, machine, ii, config)
                ref = reference_assign_clusters(ddg, machine, ii, config)
                where = (ddg.name, ii)
                assert (ours is None) == (ref is None), where
                if ours is not None:
                    assert ours.cluster_of == ref.cluster_of, where
                    assert ours.copy_count == ref.copy_count, where
                    _assert_same_kernel(ours, ref, where)
    # The audit covers the stop it exists for.
    assert trace.counter("assign.cycle_stops") > 0


#: Every per-node and per-edge field of a compiled view.
VIEW_FIELDS = (
    "node_ids", "latency", "produces_value", "edge_array", "in_specs",
    "out_specs", "successors", "predecessors", "value_consumers",
    "value_producers",
)


def _assert_same_kernel(ours, ref, where) -> None:
    """``ours`` (derived) and ``ref`` (rebuilt) are the same kernel."""
    kernel, rebuilt = ours.ddg, ref.ddg
    assert kernel.nodes == rebuilt.nodes, where
    assert kernel.edges == rebuilt.edges, where
    assert kernel.version == rebuilt.version, where
    assert ours.copy_targets == ref.copy_targets, where
    assert ours.copy_value_of == ref.copy_value_of, where
    derived = kernel.view()
    built = build_view(rebuilt, rebuilt.version)
    assert derived.version == built.version, where
    for name in VIEW_FIELDS:
        mine, theirs = getattr(derived, name), getattr(built, name)
        assert mine == theirs, (where, name)
        if isinstance(mine, dict):
            assert list(mine) == list(theirs), (where, name, "key order")
    assert set(scc_components(kernel)) == set(
        cyclic_components(built.node_ids, built.successors)
    ), where
    assert rec_mii(kernel) == reference_rec_mii(rebuilt), where
