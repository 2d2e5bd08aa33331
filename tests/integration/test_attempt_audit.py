"""Per-attempt audit: every assignment attempt against the frozen assigner.

The assigner ends a failing attempt the first time a step begins in a
decision state that an earlier step began in; the frozen reference
(``repro.baselines.reference_assign_clusters``) always spends the full
budget.  At every II that ``compile_loop`` tried, from the unified MII
to the final II, both must fail, or both must give the same cluster map
and copy count.  Only the iterative variants are audited: the others
never evict, so they never revisit a state.

The loops are those of ``test_differential_reference.py``:
``REPRO_SUITE_SIZE`` scales the synthetic corpus slice (default 60).
CI runs the audit on the full 1327-loop corpus::

    REPRO_SUITE_SIZE=1327 PYTHONHASHSEED=0 PYTHONPATH=src \\
        python -m pytest tests/integration/test_attempt_audit.py -q
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.baselines import reference_assign_clusters
from repro.core.assignment import assign_clusters
from repro.core.driver import compile_loop
from repro.core.variants import HEURISTIC_ITERATIVE, SIMPLE_ITERATIVE
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
    # The audit covers the stop it exists for.
    assert trace.counter("assign.cycle_stops") > 0
