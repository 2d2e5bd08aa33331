"""The performance ledger: corpus compile and compile-service benchmark.

One command measures the whole pipeline end to end on one workload::

    python3 benchmarks/ledger/run.py --workload corpus-grid --seed 7 \\
        --seconds 20 --trace 0

Workloads (see README.md for why each exists):

``corpus-2gp``   the 1327-loop suite compiled on ``2cl-gp-b2-p1``
``corpus-grid``  the same suite on the point-to-point ``4cl-grid-p2``
``gated-2gp``    ``corpus-2gp`` with the lint and certify gates on
``service-2gp``  Zipf-drawn suite loops through ``CompileService`` with
                 one warm worker, as closed-loop traffic

The loops are generated from ``--seed``; the compiler only ever sees
the generated graphs.  Timings are CPU time of the processes doing the
work, which a shared host's stolen cycles do not inflate.  Set-ups and
passes all count against ``--seconds``; a corpus pass is never cut
short, so a run whose first pass is longer than the budget measures
that one pass.  Every output is checked after it is timed: against
``golden/seed1998.json`` at the golden seed and full size, otherwise
against the frozen reference pipeline on a seeded 10% sample, and the
first pass's compiled loops also go through the independent certificate
checker.  The last stdout line is one JSON object: ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a traced re-run (``layers.py``).  The exit code is 1 when any output is
wrong.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

GOLDEN_PATH = HERE / "golden" / "seed1998.json"
GOLDEN_SEED = 1998
SUITE_SIZE = 1327
#: Share of the suite compared live against the reference pipeline
#: when no golden file covers the run.
REFERENCE_SHARE = 0.1
#: Fewest set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Loops compiled untimed before the first timed pass, so lazy imports
#: and first-use caches (the gates' modules, machine tables) are paid
#: before timing starts.
WARMUP_LOOPS = 30
#: Scratch space (forkserver socket, service cache dirs), relative to
#: the directory the benchmark runs from.
SCRATCH = Path(".ledger_tmp")

# Service traffic.  This is an assumption, not a measurement: no record
# of real requests exists to derive it from.  Loops are requested with
# Zipf(ZIPF_S) popularity, the popularity ranks assigned to suite loops
# in a seeded random order, so that about half of the REQUESTS repeat an
# earlier one.  A smaller suite (--loops) gets a proportionally shorter
# sequence.
ZIPF_S = 0.8
REQUESTS = 1200
#: The discarded warm-up sends this share of the sequence one at a time.
WARMUP_SHARE = 0.1
#: Fewest closed-loop bursts of the whole sequence per run.
MIN_BURSTS = 2
#: Traced-run validity: layer self times must cover the traced CPU
#: time within this share.
MAX_UNATTRIBUTED = 0.05

Observation = Optional[Tuple]  # None: the compile raised / reply not ok


@dataclass(frozen=True)
class Workload:
    machine: str
    gated: bool = False
    service: bool = False
    #: Loops compiled (twice: untraced, then traced) by a ``--trace 1``
    #: run.  A full traced grid pass would not fit one run's budget.
    trace_loops: int = SUITE_SIZE


WORKLOADS: Dict[str, Workload] = {
    "corpus-2gp": Workload(machine="2gp"),
    "corpus-grid": Workload(machine="grid", trace_loops=400),
    "gated-2gp": Workload(machine="2gp", gated=True),
    "service-2gp": Workload(machine="2gp", service=True),
}


@dataclass
class Result:
    """Everything one run reports."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0


# ----------------------------------------------------------------------
# Inputs and expected outputs
# ----------------------------------------------------------------------
def make_suite(n_loops: int, seed: int):
    from repro.workloads import paper_suite

    return paper_suite(n_loops, seed)


def make_machine(preset: str):
    from repro.machine.presets import STANDARD_PRESETS

    return STANDARD_PRESETS[preset]()


def timed_setup(n_loops: int, seed: int, preset: str):
    """(suite, machine, CPU seconds) — one set-up sample, started on a
    freshly collected heap."""
    gc.collect()
    started = time.process_time()
    suite = make_suite(n_loops, seed)
    machine = make_machine(preset)
    return suite, machine, time.process_time() - started


def _digest(mapping: Dict[int, int]) -> str:
    text = ",".join(f"{k}:{v}" for k, v in sorted(mapping.items()))
    return hashlib.blake2b(text.encode(), digest_size=6).hexdigest()


def outcome(ii, mii, copies, start, cluster_of) -> Tuple:
    """The compared form of one compile: II, MII, copies, digests."""
    return (ii, mii, copies, _digest(start), _digest(cluster_of))


def reference_outcome(ddg, machine) -> Observation:
    from repro.baselines import (
        ReferenceCompilationError,
        reference_compile_loop,
    )

    try:
        ref = reference_compile_loop(ddg, machine)
    except (ReferenceCompilationError, ValueError):
        return None
    return outcome(ref.ii, ref.mii, ref.copy_count, ref.start,
                   ref.cluster_of)


def expected_outcomes(n_loops: int, machine, seed: int, notes: List[str]
                      ) -> Dict[str, Observation]:
    """Loop name -> expected outcome, for every loop that is checked.

    The golden file covers the full suite at the golden seed; any other
    run checks a seeded sample against the reference pipeline, on a
    suite of its own so the timed suites' DDG views stay cold.
    """
    if seed == GOLDEN_SEED and n_loops == SUITE_SIZE:
        golden = json.loads(GOLDEN_PATH.read_text())
        notes.append(f"checking every output against {GOLDEN_PATH.name}")
        return {
            name: None if value is None else tuple(value)
            for name, value in golden["machines"][machine.name].items()
        }
    count = max(1, round(n_loops * REFERENCE_SHARE))
    sample = random.Random(seed).sample(range(n_loops), count)
    suite = make_suite(n_loops, seed)
    notes.append(f"checking {count} sampled loops against the reference "
                 "pipeline")
    return {
        suite[i].name: reference_outcome(suite[i], machine) for i in sample
    }


def count_wrong(
    observed: List[Tuple[str, Observation, bool]],
    expected: Dict[str, Observation],
    width: int = 5,
) -> int:
    """Observations that differ from the expected outcome (compared on
    the first ``width`` fields) or failed their certificate check."""
    wrong = 0
    for name, seen, certified in observed:
        if not certified:
            wrong += 1
        elif name in expected:
            want = expected[name]
            if (seen is None) != (want is None) or (
                seen is not None and seen[:width] != want[:width]
            ):
                wrong += 1
    return wrong


def tally(result: "Result", observed, expected, width: int = 5) -> None:
    result.attempted = len(observed)
    result.failed = sum(1 for _, seen, _ in observed if seen is None)
    result.wrong = count_wrong(observed, expected, width)


def regen_golden() -> None:
    """Rewrite the golden file from the frozen reference pipeline."""
    suite = make_suite(SUITE_SIZE, GOLDEN_SEED)
    machines = {}
    for preset in sorted({w.machine for w in WORKLOADS.values()}):
        machine = make_machine(preset)
        machines[machine.name] = {
            ddg.name: reference_outcome(ddg, machine) for ddg in suite
        }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {"seed": GOLDEN_SEED, "loops": SUITE_SIZE,
         "fields": ["ii", "mii", "copies", "start_digest",
                    "cluster_digest"],
         "machines": machines},
        separators=(",", ":"),
    ) + "\n")


# ----------------------------------------------------------------------
# Small statistics helpers
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated q-th percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(items: int, total_cpu: float, typical: List[float],
               every: List[float], setup_s: List[float]
               ) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics: items per CPU second, the median of the
    ``typical`` items' CPU times and the p95 of ``every`` item's.

    The tail is p95, not p99: which few very large loops a seed draws
    moves the grid's p99 by 28% between seeds (IQR over median, host
    drift cancelled), more than any allowed bound; see README.md.
    """
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "loops_per_cpu_s": (items / total_cpu, "loops/s"),
        "loop_cpu_p50_ms": (percentile(typical, 50) * 1e3, "ms"),
        "loop_cpu_p95_ms": (percentile(every, 95) * 1e3, "ms"),
    }


# ----------------------------------------------------------------------
# Compile workloads (closed loop: one compile after another)
# ----------------------------------------------------------------------
def gate_kwargs(workload: Workload) -> Dict[str, object]:
    if not workload.gated:
        return {}
    from repro.certify import CertifyConfig
    from repro.lint import LintConfig

    return {"lint_config": LintConfig(), "certify_config": CertifyConfig()}


@dataclass
class Pass:
    loop_cpu_s: List[float]
    #: CPU time of the whole pass on this thread, sink calls included.
    cpu_s: float


def compile_pass(suite, machine, kwargs, sink: Callable,
                 deadline: float = float("inf")) -> Pass:
    """Compile every loop once, in suite order, stopping early once
    ``time.perf_counter()`` passes ``deadline``.  ``sink`` receives each
    ``(ddg, CompiledLoop or None)`` outside the per-loop timer."""
    from repro.core import driver

    times = []
    cpu = time.thread_time()
    for ddg in suite:
        if time.perf_counter() > deadline:
            break
        started = time.process_time()
        try:
            compiled = driver.compile_loop(ddg, machine, **kwargs)
        except (driver.CompilationError, ValueError):
            compiled = None
        times.append(time.process_time() - started)
        sink(ddg, compiled)
    return Pass(times, time.thread_time() - cpu)


def observe(ddg, compiled, certify: bool = True
            ) -> Tuple[str, Observation, bool]:
    """(name, outcome, certificate ok) of one compile.

    Gated compiles carry their own certificate and lint verdicts; plain
    ones are certified here by the independent checker when ``certify``
    is set.
    """
    from repro.certify.gate import certify_compiled

    if compiled is None:
        return ddg.name, None, True
    seen = outcome(compiled.ii, compiled.mii, compiled.copy_count,
                   compiled.schedule.start, compiled.annotated.cluster_of)
    if compiled.certified is not None:
        ok = compiled.certified.ok and compiled.lint_report.ok
    else:
        ok = not certify or certify_compiled(compiled).ok
    return ddg.name, seen, ok


def warm_up(args, workload: Workload, machine) -> None:
    """An untimed compile of a few loops, on a suite of their own."""
    warmup = make_suite(min(WARMUP_LOOPS, args.loops), args.seed)
    compile_pass(warmup, machine, gate_kwargs(workload),
                 lambda ddg, compiled: None)


def run_corpus(args, workload: Workload) -> Result:
    result = Result()
    kwargs = gate_kwargs(workload)
    machine = make_machine(workload.machine)
    expected = expected_outcomes(args.loops, machine, args.seed,
                                 result.notes)
    warm_up(args, workload, machine)
    observed: List[Tuple[str, Observation, bool]] = []
    first: Dict[str, Observation] = {}

    def sink(ddg, compiled) -> None:
        # The first pass is certified; a later pass must repeat its
        # outcomes exactly.  Nothing compiled outlives its pass, so no
        # pass or set-up pays for collecting an earlier one's objects.
        if ddg.name not in first:
            observed.append(observe(ddg, compiled))
            first[ddg.name] = observed[-1][1]
        else:
            name, seen, _ = observe(ddg, compiled, certify=False)
            observed.append((name, seen, seen == first[name]))

    per_loop: List[List[float]] = [[] for _ in range(args.loops)]
    setup_s: List[float] = []
    started = time.perf_counter()
    deadline = started + args.seconds
    # Passes until the budget is spent.  The first pass always compiles
    # every loop; a later one stops at the deadline, so a loop's median
    # is over one or more samples.  Each pass compiles a freshly
    # generated suite, its own set-up sample, so no pass reuses another's
    # DDG views.
    while not setup_s or time.perf_counter() < deadline:
        suite, machine, seconds = timed_setup(args.loops, args.seed,
                                              workload.machine)
        whole = not setup_s
        setup_s.append(seconds)
        timed = compile_pass(suite, machine, kwargs, sink,
                             float("inf") if whole else deadline)
        for samples, seconds in zip(per_loop, timed.loop_cpu_s):
            samples.append(seconds)
        del suite
    while len(setup_s) < SETUP_SAMPLES:
        setup_s.append(timed_setup(args.loops, args.seed,
                                   workload.machine)[2])
    measured_s = time.perf_counter() - started

    tally(result, observed, expected)
    medians = [statistics.median(samples) for samples in per_loop]
    result.metrics = end_to_end(len(medians), sum(medians), medians,
                                medians, setup_s)
    first_pass = [seen for _, seen, _ in observed[:args.loops] if seen]
    result.notes += [
        f"{len(observed)} compiles of {args.loops} loops on "
        f"{machine.name}, {len(setup_s)} set-ups, {measured_s:.1f} s",
        f"ii_excess {sum(s[0] - s[1] for s in first_pass)} cycles, "
        f"copies {sum(s[2] for s in first_pass)} ops (first pass)",
    ]
    return result


def trace_corpus(args, workload: Workload) -> Result:
    """Untraced then traced pass over a seeded sample; layer metrics."""
    from repro import obs

    import layers

    result = Result()
    kwargs = gate_kwargs(workload)
    machine = make_machine(workload.machine)
    expected = expected_outcomes(args.loops, machine, args.seed,
                                 result.notes)
    warm_up(args, workload, machine)
    count = min(args.loops, workload.trace_loops)
    picks = sorted(random.Random(args.seed).sample(range(args.loops),
                                                   count))
    kept: List[Tuple] = []

    def keep(ddg, compiled) -> None:
        kept.append((ddg, compiled))

    def sample():
        suite = make_suite(args.loops, args.seed)
        gc.collect()
        return [suite[i] for i in picks]

    base = compile_pass(sample(), machine, kwargs, keep)
    account = layers.LayerAccount()
    layers.install(account)
    loops = sample()
    with obs.tracing() as trace:
        traced = compile_pass(loops, machine, kwargs, keep)
    # Metrics first: the checks below call wrapped code.
    result.metrics = layer_metrics(account, trace.counters,
                                   traced.cpu_s, base.cpu_s)
    firsts = [c for _, c in kept[count:] if c is not None]
    result.metrics.update({
        "output.copies": (sum(c.copy_count for c in firsts), "ops"),
        "output.ii_excess": (sum(c.ii - c.mii for c in firsts), "cycles"),
    })
    tally(result, [observe(ddg, c) for ddg, c in kept], expected)
    result.notes.append(
        f"traced {count} of {args.loops} loops on {machine.name}")
    unattributed = result.metrics["trace.unattributed_frac"][0]
    if unattributed > MAX_UNATTRIBUTED:
        result.notes.append(
            f"INVALID: layers leave {unattributed:.1%} of the traced CPU "
            f"time unattributed (limit {MAX_UNATTRIBUTED:.0%})")
    return result


def layer_metrics(account, counters, cpu_s: float, base_cpu_s: float):
    """Per-layer shares and counts of one traced stretch of work.

    A layer that does no work in the traced process reads 0 on every
    metric, ratios included (see README.md).
    """
    import layers

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.share"] = (
            ratio(account.self_s.get(layer, 0.0), cpu_s), "ratio")
        metrics[f"{layer}.calls"] = (account.calls.get(layer, 0), "count")
    c = counters.get
    attempts = c("driver.attempts", 0)
    assigned = attempts - c("driver.assign_failures", 0)
    evaluations = c("assign.evaluations", 0)
    replans = c("copies.replans", 0)
    requests = c("service.requests", 0)
    roundtrip = account.pool_roundtrip_s
    queue_wait = account.pool_queue_wait_s
    execute = account.pool_execute_s
    metrics.update({
        "core.driver.attempts": (attempts, "count"),
        # II attempts beyond each compile's first: wasted schedules.
        "core.driver.retries": (
            attempts - account.calls.get("core.driver", 0), "count"),
        "core.assignment.evictions": (c("assign.evictions", 0), "count"),
        "core.assignment.feasible_frac": (ratio(
            evaluations - c("assign.infeasible_evaluations", 0),
            evaluations), "ratio"),
        "core.assignment.success_frac": (ratio(assigned, attempts),
                                         "ratio"),
        "core.copies.replans": (replans, "count"),
        "core.copies.replan_ok_frac": (ratio(
            replans - c("copies.replan_failures", 0), replans), "ratio"),
        "scheduling.modulo.slot_probes": (c("sched.slot_probes", 0),
                                          "count"),
        "scheduling.modulo.success_frac": (ratio(
            assigned - c("driver.schedule_failures", 0), assigned),
            "ratio"),
        "ddg.mii.recmii_cache_hits": (c("mii.recmii_cache_hits", 0),
                                      "count"),
        "service.pool.batches": (c("service.batches", 0), "count"),
        "service.pool.queue_wait_frac": (ratio(queue_wait, roundtrip),
                                         "ratio"),
        "service.pool.execute_frac": (ratio(execute, roundtrip), "ratio"),
        "service.pool.ipc_frac": (ratio(
            roundtrip - queue_wait - execute, roundtrip), "ratio"),
        "service.cache.hit_frac": (ratio(c("service.cache_hits", 0),
                                         requests), "ratio"),
        "service.frontdoor.coalesced_frac": (ratio(
            c("service.coalesced", 0), requests), "ratio"),
        "trace.cpu_s": (cpu_s, "s"),
        "trace.overhead_frac": (cpu_s / base_cpu_s - 1.0, "ratio"),
        "trace.unattributed_frac": (
            1.0 - sum(account.self_s.values()) / cpu_s, "ratio"),
    })
    return metrics


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
def zipf_sequence(rng: random.Random, n_loops: int, k: int) -> List[int]:
    """``k`` loop indices drawn Zipf(ZIPF_S), popularity ranks in a
    seeded random order."""
    ranked = rng.sample(range(n_loops), n_loops)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n_loops)]
    return rng.choices(ranked, weights=weights, k=k)


def thread_cpu_s(pid: int) -> float:
    """CPU seconds run so far by the main thread of process ``pid``."""
    with open(f"/proc/{pid}/schedstat") as handle:
        return int(handle.read().split()[0]) / 1e9


class ServiceBench:
    """One warm pool, its worker, and the request sequence of one run.

    CPU time is this process's (event loop, pool collector and feeder
    threads) plus the worker's main thread, which does all its work.
    """

    def __init__(self, args, workload: Workload) -> None:
        from repro.service import CompileRequest, WorkerPool

        SCRATCH.mkdir(exist_ok=True)
        # Keep the forkserver socket inside the run's directory; a
        # relative path stays under the AF_UNIX length limit.
        scratch = SCRATCH.resolve()
        tempfile.tempdir = str(scratch if len(str(scratch)) < 60
                               else SCRATCH)
        self.setup_s: List[float] = []
        self.pool = None
        # Each set-up sample starts the pool afresh; the last one serves.
        for _ in range(SETUP_SAMPLES):
            if self.pool is not None:
                self.pool.close()
            suite, self.machine, seconds = timed_setup(
                args.loops, args.seed, workload.machine)
            started = time.process_time()
            self.pool = WorkerPool(workers=1)
            self.pool.warm_up()
            self.worker = self.pool.submit("ping", None).result(
                timeout=30).value["pid"]
            self.setup_s.append(seconds + time.process_time() - started
                                + thread_cpu_s(self.worker))
        count = max(1, round(REQUESTS * len(suite) / SUITE_SIZE))
        self.requests = [
            CompileRequest(loop=suite[i], machine=workload.machine)
            for i in zipf_sequence(random.Random(args.seed), len(suite),
                                   count)
        ]
        self._services = 0

    def cpu_s(self) -> float:
        return time.process_time() + thread_cpu_s(self.worker)

    def close(self) -> None:
        self.pool.close()
        self.pool = None
        stop_multiprocessing_helpers()
        shutil.rmtree(SCRATCH / f"cache-{os.getpid()}", ignore_errors=True)

    def service(self):
        """A fresh front door over the warm pool, with an empty cache."""
        from repro.service import CompileService, ServiceConfig

        self._services += 1
        cache_dir = SCRATCH / f"cache-{os.getpid()}" / str(self._services)
        return CompileService(
            ServiceConfig(workers=1, cache_dir=str(cache_dir)),
            pool=self.pool,
        )

    async def sequential(self, requests):
        """One request at a time; (replies, CPU seconds per request)."""
        replies, costs = [], []
        async with self.service() as service:
            for request in requests:
                worker = thread_cpu_s(self.worker)
                client = time.process_time()
                replies.append(await service.submit(request))
                client = time.process_time() - client
                costs.append(client + thread_cpu_s(self.worker) - worker)
        return replies, costs

    async def burst(self, cpu: Callable[[], float]):
        """Closed-loop replay of the whole sequence (up to 256 requests
        in flight); (replies, ``cpu()`` seconds spent)."""
        from repro.service import replay

        async with self.service() as service:
            started = cpu()
            replies = await replay(service, self.requests)
            return replies, cpu() - started


def stop_multiprocessing_helpers() -> None:
    """Stop and reap the forkserver and resource tracker processes that
    the pool started (the standard library only does so at exit,
    without waiting)."""
    from multiprocessing import forkserver, resource_tracker

    gc.collect()
    for helper in (forkserver._forkserver,
                   resource_tracker._resource_tracker):
        helper._stop()


def observe_replies(replies) -> List[Tuple[str, Observation, bool]]:
    return [
        (reply.loop,
         (reply.ii, reply.mii, reply.copies) if reply.status == "ok"
         else None,
         True)
        for reply in replies
    ]


def run_service(args, workload: Workload) -> Result:
    result = Result()
    expected = expected_outcomes(args.loops, make_machine(workload.machine),
                                 args.seed, result.notes)
    started = time.perf_counter()
    bench = ServiceBench(args, workload)
    try:
        requests = bench.requests

        async def drive():
            await bench.sequential(
                requests[:max(1, round(len(requests) * WARMUP_SHARE))])
            gc.collect()
            sequential = await bench.sequential(requests)
            bursts, last_wall = [], 0.0
            # Bursts while another one fits the budget (at least two).
            while len(bursts) < MIN_BURSTS or (
                    time.perf_counter() - started + last_wall
                    <= args.seconds):
                gc.collect()
                wall = time.perf_counter()
                bursts.append(await bench.burst(bench.cpu_s))
                last_wall = time.perf_counter() - wall
            return sequential, bursts

        sequential, bursts = asyncio.run(drive())
        measured_s = time.perf_counter() - started
    finally:
        bench.close()
    replies = sequential[0] + [r for b in bursts for r in b[0]]
    tally(result, observe_replies(replies), expected, width=3)
    # The typical request is a cache hit, but only just: 52-56% of the
    # requests repeat an earlier one, so the median over all requests
    # sits in the hits' upper tail and moves with the repeat share.  The
    # median hit is reported instead; a tiny smoke sequence may have none.
    costs = sequential[1]
    hits = [c for r, c in zip(sequential[0], costs) if r.cached] or costs
    result.metrics = end_to_end(
        len(requests), statistics.median(cpu for _, cpu in bursts), hits,
        costs, bench.setup_s)
    distinct = len({r.loop.name for r in requests})
    result.notes.append(
        f"{len(requests)} requests ({distinct} distinct loops): one "
        f"sequential pass, {len(bursts)} closed-loop bursts, "
        f"{measured_s:.1f} s")
    return result


def trace_service(args, workload: Workload) -> Result:
    """Untraced then traced closed-loop burst; layer metrics."""
    from repro import obs

    import layers

    result = Result()
    bench = ServiceBench(args, workload)
    try:
        expected = expected_outcomes(args.loops, bench.machine, args.seed,
                                     result.notes)
        account = layers.LayerAccount()

        async def drive():
            base = await bench.burst(time.thread_time)
            gc.collect()
            layers.install(account)
            with obs.tracing() as trace:
                traced = await bench.burst(time.thread_time)
            return base, traced, trace

        (base_replies, base_cpu), (replies, cpu), trace = asyncio.run(
            drive())
    finally:
        bench.close()
    result.metrics = layer_metrics(account, trace.counters, cpu, base_cpu)
    ok = [r for r in replies if r.status == "ok"]
    result.metrics.update({
        "output.copies": (sum(r.copies for r in ok), "ops"),
        "output.ii_excess": (sum(r.ii - r.mii for r in ok), "cycles"),
    })
    tally(result, observe_replies(base_replies + replies), expected,
          width=3)
    result.notes.append(
        f"traced one closed-loop burst of {len(bench.requests)} requests "
        "on the event-loop thread (compiles run in the worker)")
    return result


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Compile-time ledger: end-to-end and per-layer "
                    "metrics of one workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced run")
    parser.add_argument("--loops", type=int, default=SUITE_SIZE,
                        help="suite size (smaller for smoke runs)")
    parser.add_argument("--regen-golden", action="store_true",
                        help=f"rewrite {GOLDEN_PATH.name} and exit")
    args = parser.parse_args(argv)
    if not args.regen_golden and args.workload is None:
        parser.error("--workload is required")
    if args.loops < 1 or args.seconds <= 0:
        parser.error("--loops and --seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.regen_golden:
        regen_golden()
        return 0
    workload = WORKLOADS[args.workload]
    if workload.service:
        runner = trace_service if args.trace else run_service
    else:
        runner = trace_corpus if args.trace else run_corpus
    result = runner(args, workload)

    for note in result.notes:
        print(f"# {note}", file=sys.stderr if note.startswith("INVALID")
              else sys.stdout)
    failed_frac = ratio(result.failed, result.attempted)
    wrong_frac = ratio(result.wrong, result.attempted)
    print(f"# attempted {result.attempted}  failed_frac {failed_frac:g}  "
          f"wrong_frac {wrong_frac:g}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.wrong == 0 else 1


if __name__ == "__main__":
    # ResourceKey tuples carry enums hashed by name, so set and dict
    # orders, and with them every count, repeat only under a fixed seed.
    if "PYTHONHASHSEED" not in os.environ:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
