"""The tracing core: hierarchical spans, counters, phase profiles.

Zero-dependency and allocation-light.  A :class:`Trace` is an in-memory
collector: entering ``span("assign", ii=7)`` opens a node under the
current one, ``count("assign.evictions")`` increments a counter on the
innermost open span (and the trace-wide aggregate), and closing the span
records its wall time.  Finished traces are queried from tests
(:meth:`Trace.counter`, :meth:`Trace.find`), folded into per-phase
wall-time histograms (:meth:`Trace.phases`), rendered as a summary tree
(:mod:`repro.obs.render`), or serialized to JSONL
(:mod:`repro.obs.sinks`).

The module-level :func:`span` / :func:`count` helpers are the
instrumentation points woven through the pipeline.  They are guarded by
a plain module global so the *disabled* path — no trace installed
anywhere — is one integer test and a return; the compiler hot loops pay
essentially nothing.  Installation is thread-local: a trace observes
only the thread it was installed on, and concurrent threads can each
carry their own.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class SpanNode:
    """One finished (or still-open) span in the trace tree."""

    __slots__ = ("name", "attrs", "started", "duration", "counters",
                 "children")

    def __init__(self, name: str, attrs: Dict[str, object],
                 started: float) -> None:
        self.name = name
        #: User attributes (``span("assign", ii=7)`` → ``{"ii": 7}``).
        self.attrs = attrs
        #: Seconds since the owning trace's epoch.
        self.started = started
        #: Wall seconds; 0.0 while the span is still open.
        self.duration = 0.0
        #: Counters incremented while this span was innermost.
        self.counters: Dict[str, int] = {}
        self.children: List["SpanNode"] = []

    def walk(self) -> Iterator["SpanNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_counters(self) -> Dict[str, int]:
        """Counters aggregated over this node and all descendants."""
        totals: Dict[str, int] = {}
        for node in self.walk():
            for name, value in node.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanNode({self.name!r}, attrs={self.attrs}, "
                f"duration={self.duration:.6f})")


class PhaseStats:
    """Wall-time distribution of every span sharing one name."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets",
                 "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        #: Log2 histogram: bucket ``b`` counts durations in
        #: ``[2**(b-1), 2**b)`` microseconds (bucket 0 is "< 1 us").
        self.buckets: Dict[int, int] = {}
        #: Every folded duration, in arrival order — the percentile
        #: source.  Bounded by the span count, not hot-loop activity.
        self.samples: List[float] = []

    def add(self, duration: float) -> None:
        """Fold one span's wall time in."""
        self.count += 1
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration
        bucket = int(duration * 1e6).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.samples.append(duration)

    @property
    def mean(self) -> float:
        """Average span duration in seconds."""
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        """Smallest duration, safe to render: 0.0 when empty.

        The raw ``min`` attribute stays ``inf`` for an empty
        distribution (the natural fold identity); every renderer and
        sink goes through this guard instead.
        """
        return self.min if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (0-100) with linear interpolation."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    @property
    def p50(self) -> float:
        """Median span duration in seconds."""
        return self.percentile(50.0)

    @property
    def p90(self) -> float:
        """90th-percentile span duration in seconds."""
        return self.percentile(90.0)

    @property
    def p99(self) -> float:
        """99th-percentile span duration in seconds."""
        return self.percentile(99.0)

    @staticmethod
    def bucket_label(bucket: int) -> str:
        """Upper bound of a histogram bucket, human-readable."""
        if bucket == 0:
            return "<1us"
        upper = 2 ** bucket  # microseconds
        if upper < 1000:
            return f"<{upper}us"
        if upper < 1_000_000:
            return f"<{upper // 1000}ms"
        return f"<{upper // 1_000_000}s"


class _LiveSpan:
    """Context manager for one open span of a :class:`Trace`."""

    __slots__ = ("_trace", "node")

    def __init__(self, trace: "Trace", node: SpanNode) -> None:
        self._trace = trace
        self.node = node

    def note(self, **attrs: object) -> None:
        """Attach attributes discovered mid-span (e.g. the outcome)."""
        self.node.attrs.update(attrs)

    def __enter__(self) -> "_LiveSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        self._trace._close(self.node)
        return False


class _NullSpan:
    """The disabled-mode stand-in: every operation is a no-op."""

    __slots__ = ()

    def note(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Trace:
    """In-memory span/counter collector for one thread.

    Not installed anywhere by itself — pass it to :func:`tracing` (or
    :func:`install`) to start observing the calling thread.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        #: Wall-clock instant of ``epoch`` (``time.time()``), shared
        #: across processes on one host — the correlation anchor that
        #: lets :meth:`graft` rebase a worker trace's span offsets into
        #: this trace's clock.  None on traces rebuilt from event logs
        #: that carried no header.
        self.epoch_wall: Optional[float] = time.time()
        #: Random identity, stamped on the JSONL header so logs from
        #: different processes of one run can be told apart and
        #: re-correlated offline.
        self.trace_id: str = uuid.uuid4().hex[:16]
        #: Top-level spans, in start order.
        self.roots: List[SpanNode] = []
        #: Trace-wide counter aggregate (sum over all spans plus any
        #: counts recorded outside every span).
        self.counters: Dict[str, int] = {}
        self._stack: List[SpanNode] = []

    # -- recording -----------------------------------------------------
    def span(self, name: str, attrs: Optional[Dict[str, object]] = None
             ) -> _LiveSpan:
        """Open a child span of the innermost open span."""
        node = SpanNode(name, dict(attrs) if attrs else {},
                        time.perf_counter() - self.epoch)
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        return _LiveSpan(self, node)

    def _close(self, node: SpanNode) -> None:
        node.duration = time.perf_counter() - self.epoch - node.started
        # Pop through any spans left open by exceptions below this one.
        while self._stack:
            popped = self._stack.pop()
            if popped is node:
                break

    def count(self, name: str, n: int = 1) -> None:
        """Increment a counter on the innermost open span."""
        self.counters[name] = self.counters.get(name, 0) + n
        if self._stack:
            owner = self._stack[-1].counters
            owner[name] = owner.get(name, 0) + n

    def graft(self, other: "Trace", name: str = "worker",
              **attrs: object) -> SpanNode:
        """Absorb another trace — typically deserialized from a worker
        process — into this one.

        The other trace's root spans become children of a new synthetic
        span (named ``name``, carrying ``attrs``) attached under this
        trace's innermost open span, and its trace-wide counters fold
        into this trace's aggregate.  Returns the synthetic host span.

        When both traces carry wall-clock epochs, every grafted span's
        ``started`` offset is rebased from the other trace's clock into
        this one's, so the merged tree is one coherent timeline: a span
        that ran 3ms into the worker's life shows up at
        ``(worker_birth - parent_birth) + 3ms``.  Without epochs (an old
        event log), the worker window is placed at the graft instant.
        The host span covers the worker trace's real elapsed window —
        ``max(end) - min(start)`` — not the sum of root durations, which
        double-counts nothing but also never exceeds wall time when
        roots overlap.
        """
        now = time.perf_counter() - self.epoch
        roots = list(other.roots)
        if other.epoch_wall is not None and self.epoch_wall is not None:
            offset = other.epoch_wall - self.epoch_wall
        elif roots:
            # Unknown worker epoch: pin the window's start to the graft
            # instant so relative timing within the worker survives.
            offset = now - min(root.started for root in roots)
        else:
            offset = 0.0
        if offset:
            pending = list(roots)
            while pending:
                node = pending.pop()
                node.started += offset
                pending.extend(node.children)
        if roots:
            started = min(root.started for root in roots)
            ended = max(root.started + root.duration for root in roots)
        else:
            started, ended = now, now
        host = SpanNode(name, dict(attrs), started)
        host.children = roots
        host.duration = ended - started
        if self._stack:
            self._stack[-1].children.append(host)
        else:
            self.roots.append(host)
        for counter_name, value in other.counters.items():
            self.counters[counter_name] = \
                self.counters.get(counter_name, 0) + value
        return host

    # -- queries -------------------------------------------------------
    def counter(self, name: str) -> int:
        """Trace-wide value of one counter (0 when never incremented)."""
        return self.counters.get(name, 0)

    def walk(self) -> Iterator[SpanNode]:
        """Every span in the trace, depth-first over all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> List[SpanNode]:
        """All spans with the given name, in depth-first order."""
        return [node for node in self.walk() if node.name == name]

    def phases(self) -> Dict[str, PhaseStats]:
        """Per-span-name wall-time distributions over the whole trace."""
        stats: Dict[str, PhaseStats] = {}
        for node in self.walk():
            phase = stats.get(node.name)
            if phase is None:
                phase = stats[node.name] = PhaseStats(node.name)
            phase.add(node.duration)
        return stats


# ----------------------------------------------------------------------
# Thread-local installation and the module-level fast path
# ----------------------------------------------------------------------
_tls = threading.local()
_lock = threading.Lock()
#: Number of traces installed across *all* threads.  The disabled fast
#: path tests this plain global before touching the thread-local.
_n_active = 0


def current_trace() -> Optional[Trace]:
    """The trace observing this thread, or None."""
    if _n_active == 0:
        return None
    return getattr(_tls, "trace", None)


def enabled() -> bool:
    """Is a trace installed on the calling thread?"""
    return current_trace() is not None


def install(trace: Trace) -> None:
    """Start observing the calling thread with ``trace``.

    Nesting is allowed; :func:`uninstall` restores the previous trace.
    """
    global _n_active
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(trace)
    _tls.trace = trace
    with _lock:
        _n_active += 1


def uninstall() -> None:
    """Stop the innermost trace installed on the calling thread."""
    global _n_active
    stack = getattr(_tls, "stack", None)
    if not stack:
        raise RuntimeError("no trace installed on this thread")
    stack.pop()
    _tls.trace = stack[-1] if stack else None
    with _lock:
        _n_active -= 1


@contextmanager
def tracing(trace: Optional[Trace] = None) -> Iterator[Trace]:
    """Observe the calling thread for the duration of the block.

    >>> with tracing() as trace:
    ...     compile_loop(ddg, machine)
    >>> trace.counter("assign.placements")
    """
    if trace is None:
        trace = Trace()
    install(trace)
    try:
        yield trace
    finally:
        uninstall()


def span(name: str, **attrs: object):
    """Open a span on this thread's trace (no-op when tracing is off)."""
    trace = current_trace()
    if trace is None:
        return NULL_SPAN
    return trace.span(name, attrs)


def count(name: str, n: int = 1) -> None:
    """Bump a counter on this thread's trace (no-op when tracing is off)."""
    if _n_active == 0:
        return
    trace = getattr(_tls, "trace", None)
    if trace is not None:
        trace.count(name, n)
