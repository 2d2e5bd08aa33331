"""Observability: structured tracing, counters, and export.

The pipeline is instrumented with :func:`span` / :func:`count` calls —
no-ops unless a :class:`Trace` is installed on the calling thread::

    from repro import obs

    with obs.tracing() as trace:
        compile_loop(ddg, machine)
    print(obs.format_trace_report(trace))
    obs.write_jsonl(trace, "trace.jsonl")
    obs.write_chrome_trace(trace, "trace.json")   # Perfetto-loadable

Parallel runs reconstruct their per-worker timelines through
:mod:`repro.obs.timeline`.  Performance numbers are recorded by the
benchmark ledger (``benchmarks/ledger/run.py``), whose ``--trace 1``
run reads per-layer self time off these spans.

See ``docs/OBSERVABILITY.md`` for the span and counter taxonomy and
``docs/PERFORMANCE.md`` for how to measure.
"""

from . import timeline
from .chrome import chrome_trace_events, write_chrome_trace
from .render import (
    format_counters,
    format_phase_table,
    format_trace_report,
    format_trace_tree,
)
from .sinks import (
    metrics_dict,
    read_jsonl,
    read_trace,
    trace_events,
    trace_from_events,
    write_jsonl,
)
from .trace import (
    NULL_SPAN,
    PhaseStats,
    SpanNode,
    Trace,
    count,
    current_trace,
    enabled,
    install,
    span,
    tracing,
    uninstall,
)

__all__ = [
    "NULL_SPAN",
    "PhaseStats",
    "SpanNode",
    "Trace",
    "chrome_trace_events",
    "count",
    "current_trace",
    "enabled",
    "format_counters",
    "format_phase_table",
    "format_trace_report",
    "format_trace_tree",
    "install",
    "metrics_dict",
    "read_jsonl",
    "read_trace",
    "span",
    "timeline",
    "trace_events",
    "trace_from_events",
    "tracing",
    "uninstall",
    "write_chrome_trace",
    "write_jsonl",
]
