"""Trace sinks: JSONL event logs and machine-readable metrics.

A finished :class:`~repro.obs.trace.Trace` serializes to a JSON-Lines
event log — one ``begin`` and one ``end`` event per span, in
chronological order, with the span's own counters flushed on the ``end``
event (counters never become individual events, so the log size is
bounded by the span count, not by hot-loop activity).  The header line
carries the trace's identity and wall-clock epoch, so logs written by
different processes of one run can be re-correlated offline (see
:meth:`~repro.obs.trace.Trace.graft`).  The log reads back into an
equivalent trace with :func:`read_trace` (or :func:`read_jsonl` +
:func:`trace_from_events`), making the format round-trippable for
offline analysis.

:func:`metrics_dict` flattens a trace into the machine-readable view
that ``repro experiment --json`` prints: counters plus per-phase timing
summaries with p50/p90/p99 percentiles.
"""

from __future__ import annotations

import json
from typing import Dict, IO, Iterable, Iterator, List, Union

from .trace import SpanNode, Trace

#: Schema tag stamped on every event log.  Version 2 added the
#: ``trace_id`` / ``epoch_wall`` header fields; version-1 logs still
#: read back.  Older version-2 logs may carry ``cpu`` / ``prof`` fields
#: on ``end`` events (a since-removed profiler wrote them); readers
#: ignore them.
EVENT_VERSION = 2

#: Header versions :func:`read_jsonl` accepts.
READABLE_VERSIONS = (1, 2)


def trace_events(trace: Trace) -> List[Dict[str, object]]:
    """Flatten a trace into its chronological begin/end event list."""
    events: List[Dict[str, object]] = []

    def emit(node: SpanNode, depth: int) -> None:
        begin: Dict[str, object] = {
            "ev": "begin", "span": node.name, "t": round(node.started, 9),
            "depth": depth,
        }
        if node.attrs:
            begin["attrs"] = node.attrs
        events.append(begin)
        for child in node.children:
            emit(child, depth + 1)
        end: Dict[str, object] = {
            "ev": "end", "span": node.name,
            "dur": round(node.duration, 9), "depth": depth,
        }
        if node.counters:
            end["counters"] = node.counters
        events.append(end)

    for root in trace.roots:
        emit(root, 0)
    # Counts recorded outside any span would otherwise be lost.
    orphans = dict(trace.counters)
    for node in trace.walk():
        for name, value in node.counters.items():
            orphans[name] = orphans[name] - value
            if orphans[name] == 0:
                del orphans[name]
    if orphans:
        events.append({"ev": "counters", "counters": orphans})
    return events


def trace_header(trace: Trace) -> Dict[str, object]:
    """The identity/epoch header line of a trace's event log."""
    header: Dict[str, object] = {
        "ev": "trace", "version": EVENT_VERSION,
        "trace_id": trace.trace_id,
    }
    if trace.epoch_wall is not None:
        header["epoch_wall"] = round(trace.epoch_wall, 6)
    return header


def write_jsonl(trace: Trace, out: Union[str, IO[str]]) -> int:
    """Write the trace's event log, one JSON object per line.

    ``out`` is a path or an open text file; returns the event count.
    """
    events = trace_events(trace)
    header = trace_header(trace)
    if isinstance(out, str):
        with open(out, "w") as handle:
            return _write_lines(handle, header, events)
    return _write_lines(out, header, events)


def _write_lines(handle: IO[str], header: Dict[str, object],
                 events: Iterable[Dict[str, object]]) -> int:
    n = 0
    handle.write(json.dumps(header) + "\n")
    for event in events:
        handle.write(json.dumps(event) + "\n")
        n += 1
    return n


def _iter_events(
    source: Union[str, IO[str]], keep_header: bool,
) -> Iterator[Dict[str, object]]:
    """Stream a JSONL log's events line-by-line (constant memory)."""
    if isinstance(source, str):
        handle: IO[str] = open(source)
        owns = True
    else:
        handle = source
        owns = False
    try:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if event.get("ev") == "trace":
                if event.get("version") not in READABLE_VERSIONS:
                    raise ValueError(
                        f"unsupported trace version "
                        f"{event.get('version')!r}"
                    )
                if keep_header:
                    yield event
                continue
            yield event
    finally:
        if owns:
            handle.close()


def read_jsonl(source: Union[str, IO[str]]) -> List[Dict[str, object]]:
    """Parse a JSONL event log back into its event list.

    The file is streamed line-by-line rather than slurped, so suite-
    scale logs read in constant memory.  The ``trace`` header line is
    validated and dropped, so ``read_jsonl(path)`` is the inverse of
    :func:`write_jsonl`'s ``trace_events``; use :func:`read_trace` to
    keep the header's identity and epoch.
    """
    return list(_iter_events(source, keep_header=False))


def read_trace(source: Union[str, IO[str]]) -> Trace:
    """Rebuild a trace from a JSONL log, header metadata included."""
    return trace_from_events(_iter_events(source, keep_header=True))


def trace_from_events(events: Iterable[Dict[str, object]]) -> Trace:
    """Rebuild an in-memory trace from a begin/end event stream.

    A ``trace`` header event, when present in the stream (see
    :func:`read_trace`), restores the original trace's identity and
    wall-clock epoch; without one the rebuilt trace keeps a fresh
    identity and an *unknown* (``None``) wall epoch, which
    :meth:`~repro.obs.trace.Trace.graft` treats as "place at the graft
    instant".
    """
    trace = Trace()
    trace.epoch_wall = None
    stack: List[SpanNode] = []
    for event in events:
        kind = event.get("ev")
        if kind == "trace":
            if "trace_id" in event:
                trace.trace_id = str(event["trace_id"])
            if "epoch_wall" in event:
                trace.epoch_wall = float(event["epoch_wall"])
        elif kind == "begin":
            node = SpanNode(
                str(event["span"]),
                dict(event.get("attrs", {})),
                float(event.get("t", 0.0)),
            )
            if stack:
                stack[-1].children.append(node)
            else:
                trace.roots.append(node)
            stack.append(node)
        elif kind == "end":
            if not stack:
                raise ValueError(f"unbalanced end event: {event}")
            node = stack.pop()
            if node.name != event.get("span"):
                raise ValueError(
                    f"mismatched end event {event.get('span')!r} for "
                    f"open span {node.name!r}"
                )
            node.duration = float(event.get("dur", 0.0))
            for name, value in dict(event.get("counters", {})).items():
                node.counters[name] = int(value)
                trace.counters[name] = trace.counters.get(name, 0) \
                    + int(value)
        elif kind == "counters":
            for name, value in dict(event.get("counters", {})).items():
                trace.counters[name] = trace.counters.get(name, 0) \
                    + int(value)
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    if stack:
        raise ValueError(f"{len(stack)} span(s) never ended")
    return trace


def metrics_dict(trace: Trace) -> Dict[str, object]:
    """The machine-readable view: counters + phase timings."""
    phases = {}
    for name, stats in sorted(trace.phases().items()):
        phases[name] = {
            "count": stats.count,
            "total_s": round(stats.total, 9),
            "mean_s": round(stats.mean, 9),
            "min_s": round(stats.minimum, 9),
            "max_s": round(stats.max, 9),
            "p50_s": round(stats.p50, 9),
            "p90_s": round(stats.p90, 9),
            "p99_s": round(stats.p99, 9),
        }
    return {
        "counters": dict(sorted(trace.counters.items())),
        "phases": phases,
    }
