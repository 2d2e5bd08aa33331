"""Cross-process timeline reconstruction: worker lanes + utilization.

A parallel experiment run grafts one ``worker`` host span per completed
chunk into the parent trace (see
:func:`repro.analysis.experiment.run_experiment`).  Each host span
carries the worker's **lane** — a stable small integer per worker
process — plus its ``pid``, the chunk's ``queue_wait_s`` (submit →
execution start) and ``execute_s`` (the worker-side wall time).  Since
:meth:`~repro.obs.trace.Trace.graft` rebases every grafted span into
the parent's clock, those host spans line up on one coherent timeline,
and this module folds them back into the per-worker view: what each
lane did, when, and how busy it was.

``format_lane_table`` renders the summary the ``--trace`` report shows
for parallel runs; :mod:`repro.obs.chrome` uses the same lane numbers
as Chrome trace ``tid`` values, so the Perfetto view and the text view
agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .trace import SpanNode, Trace

#: Host spans are recognized by carrying this attribute (set by the
#: experiment runner's graft call).
LANE_ATTR = "lane"


@dataclass
class Lane:
    """One worker process's reconstructed timeline."""

    lane: int
    pid: int = 0
    #: The lane's ``worker`` host spans, in start order.
    spans: List[SpanNode] = field(default_factory=list)

    @property
    def busy_seconds(self) -> float:
        """Wall seconds the worker spent executing chunks."""
        return sum(span.duration for span in self.spans)

    @property
    def queue_wait_seconds(self) -> float:
        """Total submit→start wait across the lane's chunks."""
        return sum(
            float(span.attrs.get("queue_wait_s", 0.0))
            for span in self.spans
        )

    @property
    def window(self) -> float:
        """First start → last end of the lane, in seconds."""
        if not self.spans:
            return 0.0
        start = min(span.started for span in self.spans)
        end = max(span.started + span.duration for span in self.spans)
        return end - start

    @property
    def utilization(self) -> float:
        """busy / window — 1.0 means the lane never idled."""
        window = self.window
        return self.busy_seconds / window if window > 0 else 0.0


def lanes(trace: Trace) -> List[Lane]:
    """Every worker lane present in the trace, ordered by lane id."""
    by_lane: Dict[int, Lane] = {}
    for node in trace.walk():
        if LANE_ATTR not in node.attrs:
            continue
        lane_id = int(node.attrs[LANE_ATTR])
        lane = by_lane.get(lane_id)
        if lane is None:
            lane = by_lane[lane_id] = Lane(
                lane=lane_id, pid=int(node.attrs.get("pid", 0))
            )
        lane.spans.append(node)
    ordered = [by_lane[key] for key in sorted(by_lane)]
    for lane in ordered:
        lane.spans.sort(key=lambda span: span.started)
    return ordered


def utilization(trace: Trace) -> Dict[int, float]:
    """Per-lane busy/window fraction of a parallel run's trace."""
    return {lane.lane: lane.utilization for lane in lanes(trace)}


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def format_lane_table(trace: Trace) -> str:
    """Per-worker-lane summary: chunks, busy, wait, window, utilization."""
    worker_lanes = lanes(trace)
    if not worker_lanes:
        return "(no worker lanes)"
    header = (f"  {'lane':>4} {'pid':>8} {'chunks':>7} {'busy':>9} "
              f"{'q-wait':>9} {'window':>9} {'util':>6}")
    lines = [header, "  " + "-" * (len(header) - 2)]
    for lane in worker_lanes:
        lines.append(
            f"  {lane.lane:>4} {lane.pid:>8} {len(lane.spans):>7} "
            f"{_fmt_s(lane.busy_seconds):>9} "
            f"{_fmt_s(lane.queue_wait_seconds):>9} "
            f"{_fmt_s(lane.window):>9} "
            f"{lane.utilization:>5.0%}"
        )
    return "\n".join(lines)
