"""Experiment harness: deviation histograms, runners, text reports."""

from .campaign import Campaign, campaign_to_markdown, run_campaign
from .experiment import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    EngineOptions,
    ExperimentError,
    ExperimentResult,
    LoopOutcome,
    UnifiedBaseline,
    run_experiment,
    run_sweep,
    run_variant_comparison,
)
from .histogram import DeviationHistogram, histogram_of
from .registers import (
    RegisterPressure,
    format_pressure,
    mve_unroll_factor,
    register_pressure,
)
from .slices import SlicedResult, by_recurrence, by_size, slice_result
from .reporting import (
    cumulative_table,
    deviation_table,
    experiment_summary,
    match_bar_chart,
    table3_rows,
)

__all__ = [
    "Campaign",
    "DeviationHistogram",
    "EngineOptions",
    "ExperimentError",
    "ExperimentResult",
    "LoopOutcome",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "RegisterPressure",
    "SlicedResult",
    "by_recurrence",
    "by_size",
    "campaign_to_markdown",
    "UnifiedBaseline",
    "cumulative_table",
    "deviation_table",
    "experiment_summary",
    "format_pressure",
    "histogram_of",
    "match_bar_chart",
    "mve_unroll_factor",
    "register_pressure",
    "run_campaign",
    "run_experiment",
    "run_sweep",
    "run_variant_comparison",
    "slice_result",
    "table3_rows",
]
