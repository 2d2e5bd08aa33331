"""The evaluation loop suite.

``paper_suite`` reproduces the shape of the paper's 1327-loop input set:
every hand-written kernel (Livermore-style ground truth) plus synthetic
loops calibrated to Table 1, all fully deterministic for a given seed.

The suite size is parameterized so the benchmark harness can run quick
subsets (``REPRO_SUITE_SIZE`` environment variable, see
``benchmarks/conftest.py``) while tests of the Table 1 statistics use the
full 1327.
"""

from __future__ import annotations

from typing import List

from ..ddg.graph import Ddg
from .kernels import all_kernels
from .synthetic import generate_suite

#: Size of the paper's suite.
PAPER_SUITE_SIZE = 1327

#: Seed fixed once for reproducibility of every number in EXPERIMENTS.md.
DEFAULT_SEED = 1998


def paper_suite(
    n_loops: int = PAPER_SUITE_SIZE,
    seed: int = DEFAULT_SEED,
) -> List[Ddg]:
    """Build the evaluation suite: kernels first, synthetic fill after.

    ``n_loops`` below the kernel count simply truncates the kernel list
    (useful for very quick smoke runs).
    """
    if n_loops < 1:
        raise ValueError("a suite needs at least one loop")
    loops = all_kernels()
    if len(loops) >= n_loops:
        return loops[:n_loops]
    return loops + generate_suite(n_loops - len(loops), seed=seed)
