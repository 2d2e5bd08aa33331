"""One-call regeneration of the paper's entire evaluation.

``run_campaign`` executes every table and figure of the paper over one
suite and collects the results; ``campaign_to_markdown`` renders them as
a report in the same structure as EXPERIMENTS.md.  The pytest-benchmark
harness under ``benchmarks/`` wraps the same experiments individually;
this module is the library-level entry point (also exposed as
``python -m repro campaign``).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.variants import ALL_VARIANTS, HEURISTIC_ITERATIVE
from ..ddg.graph import Ddg
from ..machine.presets import (
    TABLE3_CONFIGS,
    four_cluster_fs,
    four_cluster_gp,
    four_cluster_grid,
    n_cluster_gp,
    two_cluster_fs,
    two_cluster_gp,
)
from ..workloads.stats import SuiteStatistics, suite_statistics
from ..workloads.suite import paper_suite
from .experiment import (
    EngineOptions,
    ExperimentResult,
    UnifiedBaseline,
    run_experiment,
)
from .reporting import cumulative_table, deviation_table, table3_rows


@dataclass
class Campaign:
    """All experiment results of one full evaluation run."""

    n_loops: int
    table1: SuiteStatistics
    fig12: List[ExperimentResult] = field(default_factory=list)
    fig13: List[ExperimentResult] = field(default_factory=list)
    fig14: List[ExperimentResult] = field(default_factory=list)
    fig15: List[ExperimentResult] = field(default_factory=list)
    fig16: List[ExperimentResult] = field(default_factory=list)
    fig17: List[ExperimentResult] = field(default_factory=list)
    fig18: List[ExperimentResult] = field(default_factory=list)
    fig19: List[ExperimentResult] = field(default_factory=list)
    table3: List[Tuple[int, int, int, float]] = field(default_factory=list)
    grid: Optional[ExperimentResult] = None

    def sections(self) -> List[Tuple[str, List[ExperimentResult]]]:
        """(title, results) for every figure, in paper order."""
        return [
            ("Figure 12 — heuristics, 2 clusters GP", self.fig12),
            ("Figure 13 — heuristics, 4 clusters GP", self.fig13),
            ("Figure 14 — buses, 2 clusters GP", self.fig14),
            ("Figure 15 — ports, 2 clusters GP", self.fig15),
            ("Figure 16 — buses, 4 clusters GP", self.fig16),
            ("Figure 17 — ports, 4 clusters GP", self.fig17),
            ("Figure 18 — buses, 2 clusters FS", self.fig18),
            ("Figure 19 — buses, 4 clusters FS", self.fig19),
        ]


def run_campaign(
    n_loops: int = 250,
    loops: Optional[Sequence[Ddg]] = None,
    include_table3: bool = True,
    progress=None,
    engine_options: Optional[EngineOptions] = None,
    strict: bool = False,
) -> Campaign:
    """Run every paper experiment over one suite.

    ``progress`` may be a callable receiving one status string per
    experiment (e.g. ``print``).  ``engine_options`` (workers, per-loop
    budget, result cache) and ``strict`` apply to every experiment; the
    unified-baseline cache is shared across the whole campaign.  Under
    ``strict`` the first experiment with a failed loop raises
    :class:`~repro.analysis.experiment.ExperimentError`.
    """
    suite = list(loops) if loops is not None else paper_suite(n_loops)
    baseline = UnifiedBaseline()

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    def measure(machine, config, label):
        return run_experiment(
            suite, machine, config, label=label, baseline=baseline,
            strict=strict, options=engine_options,
        )

    def experiments(machines, labels, configs=None):
        results = []
        for index, machine in enumerate(machines):
            config = (configs[index] if configs is not None
                      else HEURISTIC_ITERATIVE)
            note(f"running {labels[index]} ...")
            results.append(measure(machine, config, labels[index]))
        return results

    campaign = Campaign(
        n_loops=len(suite), table1=suite_statistics(suite)
    )

    campaign.fig12 = experiments(
        [two_cluster_gp()] * 4,
        [config.name for config in ALL_VARIANTS],
        configs=list(ALL_VARIANTS),
    )
    campaign.fig13 = experiments(
        [four_cluster_gp()] * 4,
        [config.name for config in ALL_VARIANTS],
        configs=list(ALL_VARIANTS),
    )
    campaign.fig14 = experiments(
        [two_cluster_gp(buses=b) for b in (1, 2, 4)],
        [f"{b} bus(es)" for b in (1, 2, 4)],
    )
    campaign.fig15 = experiments(
        [two_cluster_gp(ports=p) for p in (1, 2)],
        [f"{p} port(s)" for p in (1, 2)],
    )
    campaign.fig16 = experiments(
        [four_cluster_gp(buses=b) for b in (2, 4, 8)],
        [f"{b} buses" for b in (2, 4, 8)],
    )
    campaign.fig17 = experiments(
        [four_cluster_gp(ports=p) for p in (1, 2, 4)],
        [f"{p} port(s)" for p in (1, 2, 4)],
    )
    campaign.fig18 = experiments(
        [two_cluster_fs(buses=b) for b in (1, 2, 4)],
        [f"{b} bus(es)" for b in (1, 2, 4)],
    )
    campaign.fig19 = experiments(
        [four_cluster_fs(buses=b) for b in (2, 4, 8)],
        [f"{b} buses" for b in (2, 4, 8)],
    )

    if include_table3:
        for clusters, buses, ports in TABLE3_CONFIGS:
            note(f"running Table 3: {clusters} clusters ...")
            result = measure(
                n_cluster_gp(clusters, buses, ports),
                HEURISTIC_ITERATIVE, f"{clusters}cl",
            )
            campaign.table3.append(
                (clusters, buses, ports, result.match_percentage)
            )

    note("running grid ...")
    campaign.grid = measure(
        four_cluster_grid(), HEURISTIC_ITERATIVE, "4-cluster grid"
    )
    return campaign


def campaign_to_markdown(campaign: Campaign) -> str:
    """Render a campaign as a markdown report."""
    out = io.StringIO()
    out.write("# Evaluation campaign\n\n")
    out.write(f"Suite: {campaign.n_loops} loops.\n\n")
    out.write("## Table 1 — loop statistics\n\n```\n")
    out.write(campaign.table1.format_table())
    out.write("\n```\n\n")
    for title, results in campaign.sections():
        if not results:
            continue
        out.write(f"## {title}\n\n```\n")
        out.write(deviation_table(results))
        out.write("\n\n")
        out.write(cumulative_table(results))
        out.write("\n```\n\n")
    if campaign.table3:
        out.write("## Table 3 — cluster scaling\n\n```\n")
        out.write(table3_rows(campaign.table3))
        out.write("\n```\n\n")
    if campaign.grid is not None:
        out.write("## Grid (Section 6)\n\n```\n")
        out.write(deviation_table([campaign.grid]))
        out.write("\n\n")
        out.write(cumulative_table([campaign.grid]))
        out.write("\n```\n")
    return out.getvalue()
