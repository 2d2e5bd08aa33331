"""Text rendering of experiment results in the paper's formats.

Every figure is a grouped histogram (x = II deviation, y = % of loops,
one series per configuration); every table is a small grid.  The
benchmark harness prints these renderings so a run regenerates the same
rows/series the paper reports.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .experiment import ExperimentResult
from .histogram import MAX_DEVIATION

#: Width of the ASCII bars in chart rendering.
BAR_WIDTH = 40


def deviation_table(results: Sequence[ExperimentResult]) -> str:
    """Figure-style table: one column per series, one row per deviation."""
    if not results:
        return "(no results)"
    labels = [result.label for result in results]
    col_width = max(12, max(len(label) for label in labels) + 2)
    header = f"{'II - II_unified':<16}" + "".join(
        f"{label:>{col_width}}" for label in labels
    )
    lines = [header, "-" * len(header)]
    bucket_rows = [result.histogram.buckets() for result in results]
    for row_index in range(MAX_DEVIATION + 1):
        bucket_label = bucket_rows[0][row_index][0]
        cells = "".join(
            f"{rows[row_index][1]:>{col_width - 1}.1f}%"
            for rows in bucket_rows
        )
        lines.append(f"x = {bucket_label:<12}" + cells)
    lines.append(
        f"{'loops':<16}"
        + "".join(f"{result.n_loops:>{col_width}}" for result in results)
    )
    return "\n".join(lines)


def match_bar_chart(results: Sequence[ExperimentResult]) -> str:
    """ASCII bar chart of the x = 0 match percentage per series."""
    if not results:
        return "(no results)"
    width = max(len(result.label) for result in results)
    lines = []
    for result in results:
        pct = result.match_percentage
        bar = "#" * int(round(pct / 100.0 * BAR_WIDTH))
        lines.append(f"{result.label:<{width}}  {bar:<{BAR_WIDTH}} {pct:5.1f}%")
    return "\n".join(lines)


def cumulative_table(results: Sequence[ExperimentResult]) -> str:
    """Cumulative view: percent of loops within x cycles of unified."""
    if not results:
        return "(no results)"
    labels = [result.label for result in results]
    col_width = max(12, max(len(label) for label in labels) + 2)
    header = f"{'within x of uni':<16}" + "".join(
        f"{label:>{col_width}}" for label in labels
    )
    lines = [header, "-" * len(header)]
    for deviation in range(MAX_DEVIATION + 1):
        cells = "".join(
            f"{result.histogram.percentage_at_most(deviation):>{col_width - 1}.1f}%"
            for result in results
        )
        lines.append(f"x <= {deviation:<11}" + cells)
    return "\n".join(lines)


def table3_rows(
    entries: Sequence[Tuple[int, int, int, float]]
) -> str:
    """Render Table 3: clusters / buses / ports / percent-of-unified."""
    header = f"{'Clusters':>8} {'Buses':>6} {'Ports':>6} {'% of Unified':>13}"
    lines = [header, "-" * len(header)]
    for clusters, buses, ports, pct in entries:
        lines.append(f"{clusters:>8} {buses:>6} {ports:>6} {pct:>12.1f}%")
    return "\n".join(lines)


def experiment_summary(result: ExperimentResult) -> str:
    """One-line summary used in bench logs."""
    histogram = result.histogram
    failed = (f"failed={result.n_failed} " if result.n_failed else "")
    timing = f"{result.elapsed_seconds:.1f}s"
    if result.baseline_seconds > 0:
        timing += f" + {result.baseline_seconds:.1f}s baseline"
    return (
        f"{result.label}: match={histogram.match_percentage:.1f}% "
        f"within1={histogram.percentage_at_most(1):.1f}% "
        f"mean_dev={histogram.mean_deviation:.2f} "
        f"copies={result.total_copies} "
        f"loops={result.n_loops} {failed}({timing})"
    )
