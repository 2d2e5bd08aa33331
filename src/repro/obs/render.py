"""Human-readable trace rendering: the span tree and the phase table.

``format_trace_tree`` prints one line per span — name, attributes, wall
time, and the span's *own* counters — indented by depth with box-drawing
guides.  ``format_phase_table`` summarizes wall time by span name, and
``format_counters`` dumps the trace-wide counter aggregate.  The
``trace`` CLI subcommand composes all three.
"""

from __future__ import annotations

from typing import Dict, List

from .trace import PhaseStats, SpanNode, Trace

#: Span trees from big experiments can reach thousands of nodes; beyond
#: this many children of one node, the remainder is elided with a count.
MAX_CHILDREN_SHOWN = 40


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_attrs(attrs: Dict[str, object]) -> str:
    return " ".join(f"{key}={value}" for key, value in attrs.items())


def _format_counters(counters: Dict[str, int]) -> str:
    inner = " ".join(
        f"{name}={value}" for name, value in sorted(counters.items())
    )
    return f"[{inner}]"


def _render_node(node: SpanNode, prefix: str, is_last: bool,
                 lines: List[str], top: bool) -> None:
    connector = "" if top else ("└─ " if is_last else "├─ ")
    label = node.name
    attrs = _format_attrs(node.attrs)
    if attrs:
        label += f"  {attrs}"
    line = f"{prefix}{connector}{label}  {_format_duration(node.duration)}"
    if node.counters:
        line += f"  {_format_counters(node.counters)}"
    lines.append(line)
    child_prefix = prefix if top else prefix + ("   " if is_last else "│  ")
    children = node.children
    elided = 0
    if len(children) > MAX_CHILDREN_SHOWN:
        elided = len(children) - MAX_CHILDREN_SHOWN
        children = children[:MAX_CHILDREN_SHOWN]
    for index, child in enumerate(children):
        last = index == len(children) - 1 and not elided
        _render_node(child, child_prefix, last, lines, top=False)
    if elided:
        lines.append(f"{child_prefix}└─ … {elided} more span(s) elided")


def format_trace_tree(trace: Trace) -> str:
    """The span tree, one line per span with timing and own counters."""
    if not trace.roots:
        return "(empty trace)"
    lines: List[str] = []
    for root in trace.roots:
        _render_node(root, "", True, lines, top=True)
    return "\n".join(lines)


def format_counters(trace: Trace) -> str:
    """Trace-wide counter totals, one ``name = value`` line each."""
    if not trace.counters:
        return "(no counters)"
    width = max(len(name) for name in trace.counters)
    return "\n".join(
        f"  {name:<{width}} = {value}"
        for name, value in sorted(trace.counters.items())
    )


def format_phase_table(trace: Trace) -> str:
    """Per-phase wall-time summary table with percentiles and a log2
    sparkline."""
    phases = trace.phases()
    if not phases:
        return "(no phases)"
    header = (f"  {'phase':<14} {'count':>7} {'total':>10} {'mean':>10} "
              f"{'min':>9} {'p50':>9} {'p90':>9} {'p99':>9} "
              f"{'max':>9}  histogram")
    lines = [header, "  " + "-" * (len(header) - 2)]
    for name in sorted(phases, key=lambda n: -phases[n].total):
        stats = phases[name]
        lines.append(
            f"  {name:<14} {stats.count:>7} "
            f"{_format_duration(stats.total):>10} "
            f"{_format_duration(stats.mean):>10} "
            f"{_format_duration(stats.minimum):>9} "
            f"{_format_duration(stats.p50):>9} "
            f"{_format_duration(stats.p90):>9} "
            f"{_format_duration(stats.p99):>9} "
            f"{_format_duration(stats.max):>9}"
            f"  {_sparkline(stats)}"
        )
    return "\n".join(lines)


_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _sparkline(stats: PhaseStats) -> str:
    """Bucket occupancy over the populated log2 range, plus its bounds."""
    if not stats.buckets:
        return ""
    low, high = min(stats.buckets), max(stats.buckets)
    peak = max(stats.buckets.values())
    glyphs = ""
    for bucket in range(low, high + 1):
        n = stats.buckets.get(bucket, 0)
        if n == 0:
            glyphs += " "
        else:
            level = (n * (len(_SPARK_GLYPHS) - 1) + peak - 1) // peak
            glyphs += _SPARK_GLYPHS[level]
    return (f"{PhaseStats.bucket_label(low)} {glyphs} "
            f"{PhaseStats.bucket_label(high)}")


def format_trace_report(trace: Trace) -> str:
    """Tree + counters + phase table, the full ``--trace`` output."""
    return "\n".join([
        "trace:",
        format_trace_tree(trace),
        "",
        "phase profile:",
        format_phase_table(trace),
        "",
        "counters:",
        format_counters(trace),
    ])
