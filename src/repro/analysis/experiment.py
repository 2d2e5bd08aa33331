"""Experiment runner: one machine/algorithm configuration over a suite.

The paper's measurement protocol (Section 6): schedule every loop for the
clustered machine and for the equally wide unified machine, and report the
distribution of the II difference.  ``UnifiedBaseline`` caches the unified
IIs so sweeps that share a width (e.g. the bus-count sweeps of Figures
14–17) pay for the baseline only once.

:func:`run_experiment` is the one runner; :class:`EngineOptions` says
how it runs:

* **in-process** — the default (``workers`` 0 or 1) measures every
  loop in this process;
* **warm-pool fan-out** — ``workers=N`` chunks the corpus over the
  persistent fork-server pool (:mod:`repro.service.pool`); results merge
  back in suite order, so the outcome list does not depend on worker
  count or completion order, and a crashed worker degrades its chunk
  to ``failed`` outcomes once the pool's retry budget is spent;
* **per-loop wall-time budget** — ``timeout_seconds`` submits each loop
  as its own pool task with that deadline (on a 1-worker pool when
  ``workers`` <= 1); the pool kills an overdue worker, even one stuck in
  C code, and the loop becomes a ``timeout`` outcome;
* **result cache** — ``cache_dir`` stores every outcome but timeouts in
  a :class:`~repro.service.cache.ShardedResultCache`, and ``resume=True``
  replays them, so an interrupted sweep restarts for free;
* **observability merge** — when the parent is tracing, each worker
  records its own span tree and counters, which are grafted back into
  the parent collector (see :meth:`repro.obs.Trace.graft`).

Fault tolerance: a loop that fails to compile (``CompilationError``, or
``ValueError`` for a malformed graph) is recorded as a ``failed``
:class:`LoopOutcome` and the run continues — one bad loop out of 1327
does not destroy a sweep.  ``strict=True`` finishes the run, then raises
:class:`ExperimentError` for the first failed loop in suite order.

The frozen reference is :mod:`repro.baselines`: every measured outcome
equals one built from :func:`~repro.baselines.reference_compile_loop`
on the unified and the clustered machine.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from .. import obs
from ..core.driver import CompilationError, compile_loop
from ..core.variants import HEURISTIC_ITERATIVE, AssignmentConfig
from ..ddg.graph import Ddg
from ..machine.machine import Machine
from ..service.cache import CACHE_VERSION, ShardedResultCache
from ..service.pool import DeadlineExceeded, WorkerCrashError, shared_pool
from ..workloads.fingerprint import (
    certify_fingerprint,
    compile_fingerprint,
    ddg_fingerprint,
    lint_fingerprint,
)
from .histogram import DeviationHistogram

#: Loop outcome statuses.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


class ExperimentError(CompilationError):
    """One loop failed to compile during a strict experiment run.

    Subclasses :class:`CompilationError` so existing handlers keep
    working; carries a partial :class:`ExperimentResult` (the outcomes
    before the failed loop in suite order, ``elapsed_seconds`` set) and
    the failing loop's name for post-mortem analysis.
    """

    def __init__(self, message: str, partial_result: "ExperimentResult",
                 loop_name: str) -> None:
        super().__init__(message)
        self.partial_result = partial_result
        self.loop_name = loop_name


@dataclass(frozen=True)
class EngineOptions:
    """How :func:`run_experiment` runs (what it measures stays on its
    signature)."""

    #: Worker processes; 0 or 1 measures in-process.
    workers: int = 0
    #: Per-loop wall-time budget in seconds, enforced as the worker
    #: pool's task deadline; 0 disables the budget.
    timeout_seconds: float = 0.0
    #: Directory of the sharded outcome cache; None disables caching.
    cache_dir: Optional[str] = None
    #: Replay cached outcomes instead of recompiling them.
    resume: bool = False
    #: Loops per worker task; 0 picks a size that gives each worker
    #: several tasks (smooths uneven per-loop compile times).  A budget
    #: makes every loop its own task.
    chunk_size: int = 0
    #: A :class:`repro.service.WorkerPool` to dispatch on; None uses the
    #: process-wide shared warm pool (repeat runs skip worker startup).
    pool: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LoopOutcome:
    """Result of one loop on one clustered configuration.

    ``status`` is :data:`STATUS_OK` for a measured loop; ``failed`` and
    ``timeout`` outcomes keep the suite position but carry no
    measurement (``clustered_ii`` is 0; ``unified_ii`` is the baseline
    II when it was computed before the failure, else 0).
    """

    loop_name: str
    unified_ii: int
    clustered_ii: int
    copies: int
    status: str = STATUS_OK
    error: str = ""
    #: Lint gate results for this loop (all zero / empty when the
    #: experiment ran without ``lint_config``).
    lint_errors: int = 0
    lint_warnings: int = 0
    lint_codes: Tuple[str, ...] = ()
    #: Certify gate results for this loop (all zero / empty when the
    #: experiment ran without ``certify_config``).
    cert_errors: int = 0
    cert_codes: Tuple[str, ...] = ()
    #: Exact-oracle verdict (``tight``/``loose``/...) when the gate ran
    #: with ``exact=True``; empty otherwise.
    exact_status: str = ""

    @property
    def ok(self) -> bool:
        """True when the loop was measured successfully."""
        return self.status == STATUS_OK

    @property
    def deviation(self) -> int:
        """``II_clustered - II_unified`` (the figures' x-axis).

        Only meaningful for ``ok`` outcomes; figure/histogram consumers
        must filter on :attr:`ok` (``ExperimentResult.measured`` does).
        """
        return self.clustered_ii - self.unified_ii

    @classmethod
    def from_doc(cls, doc: Dict) -> "LoopOutcome":
        """Rebuild an outcome from its cached JSON document
        (``dataclasses.asdict`` of the outcome)."""
        return cls(**dict(
            doc, lint_codes=tuple(doc["lint_codes"]),
            cert_codes=tuple(doc["cert_codes"]),
        ))


@dataclass
class ExperimentResult:
    """All outcomes of one experiment, plus derived figure data.

    ``elapsed_seconds`` covers only this experiment's own clustered
    compiles; time spent filling the shared unified-baseline cache is
    tracked separately in ``baseline_seconds`` so sweep entries that
    happen to run first are not charged for work every entry reuses.
    """

    label: str
    machine_name: str
    config_name: str
    outcomes: List[LoopOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    baseline_seconds: float = 0.0
    cache_hits: int = 0

    @property
    def measured(self) -> List[LoopOutcome]:
        """Outcomes of loops that compiled successfully."""
        return [outcome for outcome in self.outcomes if outcome.ok]

    @property
    def failures(self) -> List[LoopOutcome]:
        """Failed / timed-out outcomes."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def n_failed(self) -> int:
        """Number of loops that failed or timed out."""
        return len(self.failures)

    @property
    def histogram(self) -> DeviationHistogram:
        """Deviation histogram over the measured outcomes."""
        histogram = DeviationHistogram()
        for outcome in self.measured:
            histogram.add(outcome.deviation)
        return histogram

    @property
    def match_percentage(self) -> float:
        """Percent of measured loops whose II matched the unified machine."""
        return self.histogram.match_percentage

    @property
    def total_copies(self) -> int:
        """Copies inserted across the whole suite."""
        return sum(outcome.copies for outcome in self.measured)

    @property
    def n_loops(self) -> int:
        """Number of loops attempted (measured + failed)."""
        return len(self.outcomes)

    @property
    def total_lint_errors(self) -> int:
        """Lint errors across all outcomes (0 without a lint gate)."""
        return sum(outcome.lint_errors for outcome in self.outcomes)

    @property
    def total_lint_warnings(self) -> int:
        """Lint warnings across all outcomes (0 without a lint gate)."""
        return sum(outcome.lint_warnings for outcome in self.outcomes)

    def lint_code_counts(self) -> Dict[str, int]:
        """Loops-affected count per diagnostic code, over all outcomes."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            for code in outcome.lint_codes:
                counts[code] = counts.get(code, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def total_cert_errors(self) -> int:
        """Certificate failures across all outcomes (0 without a gate)."""
        return sum(outcome.cert_errors for outcome in self.outcomes)

    def cert_code_counts(self) -> Dict[str, int]:
        """Loops-affected count per certificate code, over all outcomes."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            for code in outcome.cert_codes:
                counts[code] = counts.get(code, 0) + 1
        return dict(sorted(counts.items()))

    def exact_status_counts(self) -> Dict[str, int]:
        """Loops per exact-oracle verdict (empty without ``exact``)."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.exact_status:
                counts[outcome.exact_status] = (
                    counts.get(outcome.exact_status, 0) + 1
                )
        return dict(sorted(counts.items()))


class UnifiedBaseline:
    """Cache of unified-machine IIs keyed by (machine name, loop name).

    Loop names must be unique within a suite; a guard on the loop's
    content fingerprint turns a silent cache collision between two
    different loops sharing a name into a hard error.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, str], int] = {}
        self._fingerprints: Dict[Tuple[str, str], str] = {}

    def lookup(self, unified_name: str, loop_name: str) -> Optional[int]:
        """Cached II, or None — never compiles."""
        return self._cache.get((unified_name, loop_name))

    def seed(self, unified_name: str, ddg: Ddg, ii: int) -> None:
        """Record an II measured by a runner (in-process, a worker, or
        replayed from the result cache)."""
        key = (unified_name, ddg.name)
        fingerprint = ddg_fingerprint(ddg)
        known = self._fingerprints.get(key)
        if known is not None and known != fingerprint:
            raise ValueError(
                f"duplicate loop name {ddg.name!r} with different "
                f"content on machine {unified_name!r}: baseline cache "
                f"keys would collide"
            )
        self._cache[key] = ii
        self._fingerprints[key] = fingerprint

    def __len__(self) -> int:
        return len(self._cache)


# ----------------------------------------------------------------------
# Per-loop measurement (shared by the in-process and worker paths)
# ----------------------------------------------------------------------
class _Job(NamedTuple):
    """What every loop of one experiment is measured with (picklable,
    so it rides into worker processes unchanged)."""

    machine: Machine
    config: AssignmentConfig
    verify: bool
    lint_config: object
    certify_config: object


#: One pending loop: (suite index, loop, known unified II or None).
_Item = Tuple[int, Ddg, Optional[int]]
#: One measured loop: (suite index, outcome, baseline compile seconds).
_Record = Tuple[int, LoopOutcome, float]


def _unmeasured(ddg: Ddg, unified_ii: int, status: str,
                error: str) -> LoopOutcome:
    """A ``failed`` / ``timeout`` outcome (no clustered measurement)."""
    return LoopOutcome(
        loop_name=ddg.name, unified_ii=unified_ii, clustered_ii=0,
        copies=0, status=status, error=error,
    )


def _measure_loop(
    ddg: Ddg, job: _Job, unified: Machine, unified_ii_hint: Optional[int],
) -> Tuple[LoopOutcome, float]:
    """One loop's outcome plus the seconds spent on its unified baseline."""
    unified_ii = 0
    baseline_seconds = 0.0
    with obs.span("loop", loop=ddg.name) as loop_span:
        try:
            if unified_ii_hint is not None:
                unified_ii = unified_ii_hint
            else:
                baseline_started = time.perf_counter()
                try:
                    unified_ii = compile_loop(ddg, unified).ii
                finally:
                    baseline_seconds = (
                        time.perf_counter() - baseline_started
                    )
            clustered = compile_loop(
                ddg, job.machine, job.config, verify=job.verify,
                lint_config=job.lint_config,
                certify_config=job.certify_config,
            )
        except CompilationError as exc:
            obs.count("experiment.failures")
            loop_span.note(outcome="failed")
            outcome = _unmeasured(ddg, unified_ii, STATUS_FAILED, str(exc))
        except ValueError as exc:
            obs.count("experiment.failures")
            loop_span.note(outcome="failed")
            outcome = _unmeasured(
                ddg, unified_ii, STATUS_FAILED, f"invalid loop: {exc}"
            )
        else:
            deviation = clustered.ii - unified_ii
            loop_span.note(
                ii=clustered.ii, deviation=deviation,
                copies=clustered.copy_count,
            )
            obs.count("experiment.loops")
            report = clustered.lint_report
            certified = clustered.certified
            outcome = LoopOutcome(
                loop_name=ddg.name,
                unified_ii=unified_ii,
                clustered_ii=clustered.ii,
                copies=clustered.copy_count,
                lint_errors=len(report.errors) if report else 0,
                lint_warnings=len(report.warnings) if report else 0,
                lint_codes=tuple(report.codes()) if report else (),
                cert_errors=len(certified.issues) if certified else 0,
                cert_codes=certified.codes() if certified else (),
                exact_status=(
                    certified.exact_status if certified else ""
                ),
            )
    return outcome, baseline_seconds


def _measure_items(items: Sequence[_Item], job: _Job) -> Iterator[_Record]:
    """Measure pending loops in order in the calling process (the
    in-process path, and each worker's chunk)."""
    unified = job.machine.unified_equivalent()
    for index, ddg, hint in items:
        yield (index, *_measure_loop(ddg, job, unified, hint))


def _run_chunk(payload: Tuple) -> Tuple:
    """Pool task ``engine_chunk``: measure one chunk of pending loops.

    Returns ``(records, events, meta)`` where ``records`` is the
    chunk's list of ``(suite_index, outcome, baseline_seconds)``,
    ``events`` is the worker trace's serialized event list (None when
    the parent was not tracing), and ``meta`` carries the worker-side
    correlation facts — pid, trace id, the worker trace's wall-clock
    epoch, and the chunk's execute wall time — that let the parent
    rebase the grafted spans onto its own timeline and split queue wait
    from execution.
    """
    items, job, want_trace = payload
    trace = obs.Trace() if want_trace else None
    meta = None
    if trace is not None:
        obs.install(trace)
    started = time.perf_counter()
    try:
        records = list(_measure_items(items, job))
        events = obs.trace_events(trace) if trace is not None else None
        if trace is not None:
            meta = {
                "pid": os.getpid(),
                "trace_id": trace.trace_id,
                "epoch_wall": trace.epoch_wall,
                "execute_s": time.perf_counter() - started,
            }
    finally:
        if trace is not None:
            obs.uninstall()
    return records, events, meta


def _chunked(
    pending: List[_Item], workers: int, chunk_size: int
) -> List[List[_Item]]:
    """Split the work list into contiguous chunks.

    Contiguity keeps the deterministic merge trivial and preserves suite
    locality; several chunks per worker smooth uneven compile times.
    """
    if chunk_size <= 0:
        chunk_size = max(1, -(-len(pending) // (workers * 4)))
    return [
        pending[start:start + chunk_size]
        for start in range(0, len(pending), chunk_size)
    ]


def _pool_records(
    pending: List[_Item], job: _Job, options: EngineOptions,
) -> Iterator[_Record]:
    """Measure the pending loops on the warm worker pool.

    Chunks dispatch as ``engine_chunk`` tasks on ``options.pool`` (or
    the process-wide shared pool) and are yielded back in submission
    order, so the merged outcome list does not depend on which worker
    finished what.  With a budget every loop is its own task, submitted
    with ``deadline=timeout_seconds``: an overdue loop's worker is
    killed and the loop becomes a ``timeout`` outcome.  A chunk whose
    worker crashed past the pool's retry budget becomes ``failed``
    outcomes.
    """
    budget = options.timeout_seconds
    workers = max(1, options.workers)
    chunk_size = 1 if budget > 0 else options.chunk_size
    chunks = _chunked(pending, workers, chunk_size)
    pool = options.pool
    if pool is None:
        pool = shared_pool(workers)
    else:
        pool.ensure_workers(workers)
    want_trace = obs.enabled()
    futures = [
        pool.submit("engine_chunk", (chunk, job, want_trace),
                    deadline=budget or None)
        for chunk in chunks
    ]
    parent_trace = obs.current_trace()
    lanes: Dict[int, int] = {}
    for chunk, future in zip(chunks, futures):
        try:
            task = future.result()
        except WorkerCrashError as exc:
            obs.count("engine.chunk_crashes")
            status, error = STATUS_FAILED, f"worker crashed: {exc}"
            counter = "experiment.failures"
        except DeadlineExceeded:
            status = STATUS_TIMEOUT
            error = f"exceeded the {budget:g}s per-loop budget"
            counter = "experiment.timeouts"
        else:
            records, events, meta = task.value
            yield from records
            if events and parent_trace is not None:
                worker_trace = obs.trace_from_events(events)
                # Stable small lane ids, one per worker process, in
                # order of first completion; the host span's attrs carry
                # the queue-wait/execute split so the timeline and
                # Chrome export can reconstruct per-worker utilization
                # (docs/EXPERIMENT_ENGINE.md).
                if meta is not None:
                    worker_trace.trace_id = meta["trace_id"]
                    worker_trace.epoch_wall = meta["epoch_wall"]
                lane = lanes.setdefault(task.pid, len(lanes))
                parent_trace.graft(
                    worker_trace, name="worker",
                    chunk_loops=len(records), lane=lane, pid=task.pid,
                    queue_wait_s=round(task.queue_wait_s, 6),
                    execute_s=round(task.execute_s, 6),
                )
            continue
        for index, ddg, hint in chunk:
            obs.count(counter)
            yield index, _unmeasured(ddg, hint or 0, status, error), 0.0


def _cache_key(ddg: Ddg, job: _Job) -> str:
    """Cache key of one loop's outcome.

    The ``extra`` field carries the lint and certify gate digests plus
    a record-kind tag, so an outcome never shares a key with a compile
    service reply for the same request in a shared cache directory.
    """
    return compile_fingerprint(
        ddg, job.machine, job.config, job.verify,
        extra={
            "record": "experiment-outcome",
            "lint": lint_fingerprint(job.lint_config),
            "certify": certify_fingerprint(job.certify_config),
        },
    )


def run_experiment(
    loops: Sequence[Ddg],
    machine: Machine,
    config: AssignmentConfig = HEURISTIC_ITERATIVE,
    label: str = "",
    baseline: Optional[UnifiedBaseline] = None,
    verify: bool = False,
    strict: bool = False,
    lint_config=None,
    certify_config=None,
    options: Optional[EngineOptions] = None,
) -> ExperimentResult:
    """Measure one clustered configuration against its unified baseline.

    A loop that raises :class:`CompilationError` (or ``ValueError``
    for a malformed graph), times out, or loses its worker is recorded
    as a non-``ok`` outcome and the run continues.  With
    ``strict=True`` the run still finishes, then raises
    :class:`ExperimentError` for the first such loop in suite order,
    carrying the outcomes before it.

    ``lint_config`` (a :class:`repro.lint.LintConfig`) runs the static
    analyzer on every compiled loop and records the per-loop diagnostic
    counts/codes on the :class:`LoopOutcome`; with
    ``lint_config.strict`` a loop whose lint report contains errors
    becomes a ``failed`` outcome.

    ``certify_config`` (a :class:`repro.certify.CertifyConfig`) emits
    and independently verifies a compilation certificate for every
    compiled loop, recording the failure count / codes (and the exact
    oracle's verdict, when enabled) on the :class:`LoopOutcome`; with
    ``certify_config.strict`` a certificate failure fails the loop.

    ``options`` (:class:`EngineOptions`) selects workers, the per-loop
    budget and the result cache; none of them changes an outcome.
    """
    if options is None:
        options = EngineOptions()
    if baseline is None:
        baseline = UnifiedBaseline()
    loops = list(loops)
    unified = machine.unified_equivalent()
    job = _Job(machine, config, verify, lint_config, certify_config)
    cache = (ShardedResultCache(options.cache_dir, CACHE_VERSION)
             if options.cache_dir else None)
    result = ExperimentResult(
        label=label or f"{machine.name}/{config.name}",
        machine_name=machine.name,
        config_name=config.name,
    )
    started = time.perf_counter()
    outcomes: List[Optional[LoopOutcome]] = [None] * len(loops)
    keys = ([_cache_key(ddg, job) for ddg in loops]
            if cache is not None else [])
    try:
        with obs.span(
            "experiment", label=result.label, machine=machine.name,
            loops=len(loops), workers=options.workers,
        ):
            pending: List[_Item] = []
            for index, ddg in enumerate(loops):
                doc = (cache.get(keys[index])
                       if cache is not None and options.resume else None)
                if doc is None:
                    if cache is not None and options.resume:
                        obs.count("engine.cache_misses")
                    pending.append(
                        (index, ddg,
                         baseline.lookup(unified.name, ddg.name))
                    )
                    continue
                obs.count("engine.cache_hits")
                result.cache_hits += 1
                hit = outcomes[index] = LoopOutcome.from_doc(doc)
                if hit.unified_ii > 0:
                    baseline.seed(unified.name, ddg, hit.unified_ii)

            on_pool = options.timeout_seconds > 0 or (
                options.workers >= 2 and len(pending) > 1
            )
            records = (
                _pool_records(pending, job, options)
                if pending and on_pool else _measure_items(pending, job)
            )
            for index, outcome, baseline_seconds in records:
                result.baseline_seconds += baseline_seconds
                if outcome.unified_ii > 0:
                    baseline.seed(
                        unified.name, loops[index], outcome.unified_ii
                    )
                outcomes[index] = outcome
                # Timeouts are never cached: a bigger budget on the
                # next run should retry them.
                if cache is not None and outcome.status != STATUS_TIMEOUT:
                    cache.put(keys[index], dataclasses.asdict(outcome))
    finally:
        # Baseline compile time is reported on its own, not charged to
        # whichever experiment happened to run first.
        result.elapsed_seconds = (
            time.perf_counter() - started - result.baseline_seconds
        )
    result.outcomes = [
        outcome for outcome in outcomes if outcome is not None
    ]
    if strict:
        _raise_on_first_failure(result)
    return result


def _raise_on_first_failure(result: ExperimentResult) -> None:
    """Strict mode: raise for the first non-``ok`` outcome.

    The raised :class:`ExperimentError` carries a partial result holding
    the outcomes *before* the first failure in suite order.
    """
    for position, outcome in enumerate(result.outcomes):
        if outcome.ok:
            continue
        partial = ExperimentResult(
            label=result.label,
            machine_name=result.machine_name,
            config_name=result.config_name,
            outcomes=list(result.outcomes[:position]),
            elapsed_seconds=result.elapsed_seconds,
            baseline_seconds=result.baseline_seconds,
            cache_hits=result.cache_hits,
        )
        raise ExperimentError(
            f"loop {outcome.loop_name!r} failed: {outcome.error}",
            partial_result=partial,
            loop_name=outcome.loop_name,
        )


def run_sweep(
    loops: Sequence[Ddg],
    machines: Iterable[Machine],
    config: AssignmentConfig = HEURISTIC_ITERATIVE,
    labels: Optional[Sequence[str]] = None,
    baseline: Optional[UnifiedBaseline] = None,
    verify: bool = False,
    strict: bool = False,
    lint_config=None,
    certify_config=None,
) -> List[ExperimentResult]:
    """Run one experiment per machine (the bus/port sweep pattern)."""
    if baseline is None:
        baseline = UnifiedBaseline()
    machine_list = list(machines)
    if labels is not None and len(labels) != len(machine_list):
        raise ValueError("labels must match machines one-to-one")
    results = []
    for index, machine in enumerate(machine_list):
        label = labels[index] if labels is not None else ""
        results.append(
            run_experiment(
                loops, machine, config,
                label=label, baseline=baseline, verify=verify,
                strict=strict, lint_config=lint_config,
                certify_config=certify_config,
            )
        )
    return results


def run_variant_comparison(
    loops: Sequence[Ddg],
    machine: Machine,
    configs: Iterable[AssignmentConfig],
    baseline: Optional[UnifiedBaseline] = None,
    verify: bool = False,
    strict: bool = False,
    lint_config=None,
    certify_config=None,
) -> List[ExperimentResult]:
    """Run one experiment per algorithm variant (Figures 12–13 pattern)."""
    if baseline is None:
        baseline = UnifiedBaseline()
    return [
        run_experiment(
            loops, machine, config,
            label=config.name, baseline=baseline, verify=verify,
            strict=strict, lint_config=lint_config,
            certify_config=certify_config,
        )
        for config in configs
    ]
