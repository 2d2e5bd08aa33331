"""Chrome trace-event export: open any trace in Perfetto / about:tracing.

:func:`write_chrome_trace` serializes a finished
:class:`~repro.obs.trace.Trace` as the JSON object form of the Trace
Event Format (the ``{"traceEvents": [...]}`` envelope understood by
``chrome://tracing`` and https://ui.perfetto.dev):

* every span becomes one complete **"X"** event (microsecond ``ts`` /
  ``dur``, attributes in ``args``);
* grafted worker host spans — and everything under them — land on a
  separate **tid lane per worker** (``tid = lane + 1``, matching
  :mod:`repro.obs.timeline`; the parent's own spans are tid 0), with
  thread-name metadata **"M"** events labeling each lane;
* trace-wide counters become cumulative **"C"** events sampled at each
  span's end, so hot counters render as rising staircases over the run.

Wired to ``--trace-chrome FILE`` on ``repro compile`` and
``repro experiment``.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Union

from .timeline import LANE_ATTR
from .trace import SpanNode, Trace

#: All events carry one synthetic process id.
PID = 1
#: The parent thread's lane.
MAIN_TID = 0


def _args(node: SpanNode) -> Dict[str, object]:
    args: Dict[str, object] = dict(node.attrs)
    for name, value in node.counters.items():
        args[f"counter.{name}"] = value
    return args


def chrome_trace_events(trace: Trace) -> List[Dict[str, object]]:
    """The trace's Chrome trace-event list, chronologically ordered."""
    events: List[Dict[str, object]] = []
    tids = {MAIN_TID}
    running: Dict[str, int] = {}
    counter_samples: List[Dict[str, object]] = []

    def emit(node: SpanNode, tid: int) -> None:
        if LANE_ATTR in node.attrs:
            tid = int(node.attrs[LANE_ATTR]) + 1
            tids.add(tid)
        event: Dict[str, object] = {
            "name": node.name,
            "cat": "repro",
            "ph": "X",
            "ts": round(node.started * 1e6, 3),
            "dur": round(node.duration * 1e6, 3),
            "pid": PID,
            "tid": tid,
        }
        args = _args(node)
        if args:
            event["args"] = args
        events.append(event)
        for child in node.children:
            emit(child, tid)
        if node.counters:
            end_ts = round((node.started + node.duration) * 1e6, 3)
            for name, value in node.counters.items():
                running[name] = running.get(name, 0) + value
                counter_samples.append({
                    "name": name,
                    "cat": "repro",
                    "ph": "C",
                    "ts": end_ts,
                    "pid": PID,
                    "args": {"value": running[name]},
                })

    for root in trace.roots:
        emit(root, MAIN_TID)
    events.extend(counter_samples)
    events.sort(key=lambda event: event["ts"])

    metadata: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": PID,
        "args": {"name": f"repro trace {trace.trace_id}"},
    }]
    for tid in sorted(tids):
        label = "main" if tid == MAIN_TID else f"worker-{tid - 1}"
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": PID, "tid": tid,
            "args": {"name": label},
        })
        metadata.append({
            "name": "thread_sort_index", "ph": "M", "pid": PID,
            "tid": tid, "args": {"sort_index": tid},
        })
    return metadata + events


def write_chrome_trace(trace: Trace,
                       out: Union[str, IO[str]]) -> int:
    """Write the trace in Chrome trace-event JSON; returns the event
    count."""
    events = chrome_trace_events(trace)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace.trace_id},
    }
    if isinstance(out, str):
        with open(out, "w") as handle:
            json.dump(document, handle)
            handle.write("\n")
    else:
        json.dump(document, out)
        out.write("\n")
    return len(events)
