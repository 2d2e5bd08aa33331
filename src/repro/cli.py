"""Command-line interface: ``python -m repro``.

Subcommands:

* ``compile`` — read a loop in the textual format of
  :mod:`repro.ddg.parse`, assign + schedule it for a chosen machine,
  print the assignment, kernel, copies, and register pressure
  (``--trace`` adds the span tree, ``--trace-out`` a JSONL event log).
* ``trace`` — compile one loop with tracing on and print only the
  observability report (see ``docs/OBSERVABILITY.md``).
* ``profile`` — compile one loop with the deterministic profiler on
  and print the CPU-by-phase breakdown plus the top-functions table
  (see ``docs/PROFILING.md``).
* ``bench`` — the benchmark observatory (``run`` / ``check`` /
  ``report``): run the benchmark suite, append schema-versioned
  artifacts to ``results/bench_history.jsonl``, gate on budget or
  baseline regressions, and render the per-benchmark history.
* ``stats`` — print the Table 1 statistics of the evaluation suite.
* ``experiment`` — run one clustered configuration against its unified
  baseline over the suite and print the II-deviation histogram
  (``--json`` emits histogram + obs counters as one JSON document).
* ``lint`` — run the static-analysis rules (see ``docs/LINTING.md``)
  over loop files, the bundled corpus, or a machine description, and
  render the diagnostics as text, JSON, or SARIF 2.1.0; exits nonzero
  only when error-severity diagnostics remain after config overrides
  (``--exit-zero`` forces a zero exit for report-only runs).
* ``certify`` — compile loops and emit + independently verify their
  compilation certificates (see ``docs/CERTIFICATES.md``); ``--exact``
  additionally runs the bounded II-tightness oracle.  Renders through
  the same text/JSON/SARIF renderers as ``lint``.

``compile`` and ``experiment`` also accept ``--lint[=strict]`` and
``--certify[=strict]`` to run the analyzer / certificate verifier as
gates on every compiled artifact.  ``lint`` and ``certify`` accept
``--workers N`` to fan loops out over worker processes; the merged
report is byte-identical to a serial run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Optional

from . import obs
from .analysis import (
    EngineOptions,
    ExperimentError,
    deviation_table,
    experiment_summary,
    run_experiment,
)
from .analysis.registers import format_pressure, register_pressure
from .codegen import expand_pipeline, format_kernel_only, format_pipelined
from .core import ALL_VARIANTS, CompilationError, compile_loop
from .ddg.dot import annotated_to_dot
from .ddg.parse import parse_loop
from .machine import Machine, STANDARD_PRESETS
from .workloads import (
    all_kernels,
    bundled_corpus,
    loads_corpus,
    paper_suite,
    suite_statistics,
)

#: Preset name → machine builder; one table shared with the service's
#: warm workers (:data:`repro.machine.STANDARD_PRESETS`), so a preset
#: named on the command line resolves against pre-built state there.
MACHINES: Dict[str, Callable[[], Machine]] = STANDARD_PRESETS

VARIANTS = {config.name.lower().replace(" ", "-"): config
            for config in ALL_VARIANTS}


def _machine(name: str) -> Machine:
    try:
        return MACHINES[name]()
    except KeyError:
        raise SystemExit(
            f"unknown machine {name!r}; choose from {sorted(MACHINES)}"
        )


def _read_loop(args: argparse.Namespace):
    """Parse the loop file argument (``-`` reads stdin)."""
    if args.loop == "-":
        text = sys.stdin.read()
    else:
        with open(args.loop) as handle:
            text = handle.read()
    return parse_loop(text, name=args.loop)


def _trace_requested(args: argparse.Namespace) -> Optional[obs.Trace]:
    """A fresh trace when any tracing flag asks for one, else None."""
    if (getattr(args, "trace", False)
            or getattr(args, "trace_out", None)
            or getattr(args, "trace_chrome", None)):
        return obs.Trace()
    return None


def _emit_trace(trace: Optional[obs.Trace],
                args: argparse.Namespace) -> None:
    """Print the trace report and/or write the event logs, as flagged."""
    if trace is None:
        return
    if getattr(args, "trace", False):
        print()
        print(obs.format_trace_report(trace))
        lane_table = obs.timeline.format_lane_table(trace)
        if lane_table != "(no worker lanes)":
            print()
            print("worker lanes:")
            print(lane_table)
    out = getattr(args, "trace_out", None)
    if out:
        n_events = obs.write_jsonl(trace, out)
        print(f"wrote {out} ({n_events} events)")
    chrome_out = getattr(args, "trace_chrome", None)
    if chrome_out:
        n_events = obs.write_chrome_trace(trace, chrome_out)
        print(f"wrote {chrome_out} ({n_events} chrome trace events)")


def _cmd_compile(args: argparse.Namespace) -> int:
    loop = _read_loop(args)
    machine = _machine(args.machine)
    config = VARIANTS[args.variant]
    lint_config = (
        _lint_config_from_args(args) if args.lint is not None else None
    )
    certify_config = (
        _certify_config_from_args(args)
        if args.certify is not None else None
    )
    trace = _trace_requested(args)
    if trace is not None:
        obs.install(trace)
    try:
        result = compile_loop(
            loop, machine, config=config, verify=True,
            lint_config=lint_config,
            certify_config=certify_config,
        )
        unified = compile_loop(loop, machine.unified_equivalent())
    except CompilationError as exc:
        print(f"compilation failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace is not None:
            obs.uninstall()

    stats = result.assignment_stats
    print(f"machine: {machine}")
    print(f"II = {result.ii} (unified machine: {unified.ii}, "
          f"MII: {result.mii})")
    print(f"copies inserted: {result.copy_count}")
    print(f"assignment stats: placements={stats.placements} "
          f"forced={stats.forced_placements} "
          f"evictions={stats.evictions} copies={stats.copies} "
          f"(II attempts: {result.attempts})")
    sched = result.scheduler_stats
    print(f"scheduler stats: placements={sched.placements} "
          f"displacements={sched.evictions}")
    print()
    print("assignment:")
    for node in result.annotated.ddg.nodes:
        cluster = result.annotated.cluster_of[node.node_id]
        marker = "  [copy]" if node.is_copy else ""
        print(f"  {str(node):<20} -> C{cluster}{marker}")
    print()
    print(f"kernel ({result.schedule.stage_count} stages):")
    print(result.schedule.format_kernel())
    print()
    print(format_pressure(register_pressure(result.schedule)))
    if args.emit:
        print()
        code = expand_pipeline(result.schedule)
        print(format_pipelined(code, result.schedule))
        print()
        print(format_kernel_only(result.schedule))
    if args.simulate:
        from .sim import simulate_schedule

        report = simulate_schedule(loop, result.schedule, args.simulate)
        verdict = "ALL MATCH" if report.ok else "MISMATCH"
        print()
        print(
            f"simulated {args.simulate} iterations "
            f"({report.cycles} cycles, {report.checked_values} values): "
            f"{verdict}"
        )
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(annotated_to_dot(result.annotated))
        print(f"wrote {args.dot}")
    if result.lint_report is not None:
        report = result.lint_report
        print()
        print(f"lint: {report.summary()}")
        for diagnostic in report.diagnostics:
            print(f"  {diagnostic}")
        if not report.ok:
            _emit_trace(trace, args)
            return 1
    if result.certified is not None:
        from .certify.gate import artifact_diagnostics

        certified = result.certified
        print()
        verdict = "verified" if certified.ok else (
            f"{len(certified.issues)} issue(s)"
        )
        print(f"certificate: {verdict}"
              + (f", exact oracle: {certified.exact_status}"
                 if certified.exact_status else ""))
        for diagnostic in artifact_diagnostics(certified):
            print(f"  {diagnostic}")
        if not certified.ok:
            _emit_trace(trace, args)
            return 1
    _emit_trace(trace, args)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    loop = _read_loop(args)
    machine = _machine(args.machine)
    config = VARIANTS[args.variant]
    with obs.tracing() as trace:
        result = compile_loop(loop, machine, config=config)
    print(f"machine: {machine}")
    print(f"II = {result.ii} (MII: {result.mii}, "
          f"attempts: {result.attempts})")
    print()
    print(obs.format_trace_report(trace))
    if args.out:
        n_events = obs.write_jsonl(trace, args.out)
        print()
        print(f"wrote {args.out} ({n_events} events)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: one traced + profiled compile, CPU report."""
    from .obs import prof

    loop = _read_loop(args)
    machine = _machine(args.machine)
    config = VARIANTS[args.variant]
    with obs.tracing() as trace, prof.profiling(trace):
        result = compile_loop(loop, machine, config=config)
    print(f"machine: {machine}")
    print(f"II = {result.ii} (MII: {result.mii}, "
          f"attempts: {result.attempts})")
    print()
    print(prof.format_profile_report(
        trace, n=args.top, sort=args.sort
    ))
    if args.tree:
        print()
        print("trace:")
        print(obs.format_trace_tree(trace))
    if args.out:
        n_events = obs.write_jsonl(trace, args.out)
        print()
        print(f"wrote {args.out} ({n_events} events)")
    if args.cprofile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        compile_loop(loop, machine, config=config)
        profiler.disable()
        profiler.dump_stats(args.cprofile)
        print(f"wrote {args.cprofile} (cProfile stats; inspect with "
              f"python -m pstats)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench run|check|report``: the benchmark observatory."""
    from .obs import bench

    history_path = args.history
    if args.action == "run":
        names = args.benchmarks or None
        suite_size = args.suite_size or (100 if args.smoke else None)
        code = bench.run_benchmarks(
            names, suite_size=suite_size, repo_root=args.repo_root
        )
        if code != 0:
            print(
                f"benchmark run failed (pytest exit {code}); "
                f"history not updated", file=sys.stderr,
            )
            return code
        artifacts = bench.collect_artifacts(
            names, repo_root=args.repo_root
        )
        for artifact in artifacts:
            bench.append_history(artifact, history_path)
        print(
            f"recorded {len(artifacts)} benchmark run(s) in "
            f"{history_path}"
        )
        return 0

    entries = bench.read_history(history_path)
    if args.action == "report":
        print(f"benchmark history — {history_path} "
              f"({len(entries)} entries)")
        print()
        print(bench.format_history_table(entries))
        return 0

    # action == "check"
    if not entries:
        print(f"no history at {history_path}; run `repro bench run` "
              f"first", file=sys.stderr)
        return 0 if args.exit_zero else 1
    violations = bench.check_entries(
        entries, tolerance=args.tolerance, baseline_n=args.baseline
    )
    checked = sorted(bench.by_benchmark(entries))
    if violations:
        print(f"{len(violations)} perf violation(s) across "
              f"{len(checked)} benchmark(s):")
        for violation in violations:
            print(f"  {violation}")
        return 0 if args.exit_zero else 1
    print(
        f"{len(checked)} benchmark(s) within budgets and baseline "
        f"(tolerance {args.tolerance:.0%}, baseline last "
        f"{args.baseline})"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    loops = paper_suite(args.loops)
    print(suite_statistics(loops).format_table())
    return 0


def _engine_options(args: argparse.Namespace) -> EngineOptions:
    """How the experiment runner runs, from the engine flags."""
    return EngineOptions(
        workers=args.workers,
        timeout_seconds=args.timeout,
        cache_dir=args.cache_dir,
        resume=args.resume,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    loops = paper_suite(args.loops)
    machine = _machine(args.machine)
    config = VARIANTS[args.variant]
    lint_config = (
        _lint_config_from_args(args) if args.lint is not None else None
    )
    certify_config = (
        _certify_config_from_args(args)
        if args.certify is not None else None
    )
    trace = _trace_requested(args)
    if args.json and trace is None:
        # --json reports obs counters, so it always traces.
        trace = obs.Trace()
    if trace is not None:
        obs.install(trace)
    try:
        result = run_experiment(
            loops, machine, config=config, strict=args.strict,
            lint_config=lint_config, certify_config=certify_config,
            options=_engine_options(args),
        )
    except ExperimentError as exc:
        print(f"experiment aborted: {exc}", file=sys.stderr)
        print(
            f"partial result: "
            f"{exc.partial_result.n_loops} loops measured",
            file=sys.stderr,
        )
        return 1
    finally:
        if trace is not None:
            obs.uninstall()
    lint_failed = (
        lint_config is not None and result.total_lint_errors > 0
    )
    cert_failed = (
        certify_config is not None and result.total_cert_errors > 0
    )
    failed = lint_failed or cert_failed
    if args.json:
        doc = _experiment_json(result, trace)
        if lint_config is not None:
            doc["lint"] = {
                "errors": result.total_lint_errors,
                "warnings": result.total_lint_warnings,
                "codes": result.lint_code_counts(),
            }
        if certify_config is not None:
            doc["certify"] = {
                "errors": result.total_cert_errors,
                "codes": result.cert_code_counts(),
                "exact": result.exact_status_counts(),
            }
        print(json.dumps(doc, indent=2))
        out = getattr(args, "trace_out", None)
        if out:
            obs.write_jsonl(trace, out)
        chrome_out = getattr(args, "trace_chrome", None)
        if chrome_out:
            obs.write_chrome_trace(trace, chrome_out)
        return 1 if failed else 0
    print(deviation_table([result]))
    print()
    print(experiment_summary(result))
    if lint_config is not None:
        print(
            f"lint gate: {result.total_lint_errors} error(s), "
            f"{result.total_lint_warnings} warning(s) across "
            f"{result.n_loops} loops"
            + (f" — codes {result.lint_code_counts()}"
               if result.lint_code_counts() else "")
        )
    if certify_config is not None:
        print(
            f"certify gate: {result.total_cert_errors} certificate "
            f"failure(s) across {result.n_loops} loops"
            + (f" — codes {result.cert_code_counts()}"
               if result.cert_code_counts() else "")
            + (f" — exact {result.exact_status_counts()}"
               if result.exact_status_counts() else "")
        )
    _emit_trace(trace, args)
    return 1 if failed else 0


def _experiment_json(result, trace: Optional[obs.Trace]) -> Dict:
    """The ``experiment --json`` document: histogram + obs metrics."""
    histogram = result.histogram
    doc: Dict = {
        "label": result.label,
        "machine": result.machine_name,
        "config": result.config_name,
        "n_loops": result.n_loops,
        "n_failed": result.n_failed,
        "cache_hits": result.cache_hits,
        "elapsed_seconds": round(result.elapsed_seconds, 6),
        "baseline_seconds": round(result.baseline_seconds, 6),
        "histogram": {
            str(deviation): count
            for deviation, count in sorted(histogram.counts.items())
        },
        "match_percentage": round(histogram.match_percentage, 3),
        "mean_deviation": round(histogram.mean_deviation, 4),
        "total_copies": result.total_copies,
    }
    if result.n_failed:
        doc["failures"] = [
            {"loop": outcome.loop_name, "status": outcome.status,
             "error": outcome.error}
            for outcome in result.failures
        ]
    if trace is not None:
        doc.update(obs.metrics_dict(trace))
    return doc


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .analysis import campaign_to_markdown, run_campaign

    try:
        campaign = run_campaign(
            n_loops=args.loops,
            include_table3=not args.skip_table3,
            progress=(print if args.verbose else None),
            engine_options=_engine_options(args),
            strict=args.strict,
        )
    except ExperimentError as exc:
        print(f"campaign aborted: {exc}", file=sys.stderr)
        return 1
    report = campaign_to_markdown(campaign)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def _severity_overrides(args: argparse.Namespace) -> Dict[str, str]:
    """Parse repeated ``--severity CODE=LEVEL`` flags into a map."""
    severity: Dict[str, str] = {}
    for item in getattr(args, "severity", None) or []:
        code, _, level = item.partition("=")
        if not level:
            raise SystemExit(
                f"--severity wants CODE=LEVEL, got {item!r}"
            )
        severity[code] = level
    return severity


def _certify_config_from_args(args: argparse.Namespace):
    """Build a :class:`repro.certify.CertifyConfig` from parsed flags."""
    from .certify.gate import CertifyConfig

    exact = getattr(args, "exact", False)
    if getattr(args, "fast", False):
        exact = False
    return CertifyConfig(
        strict=getattr(args, "certify", None) == "strict",
        exact=exact,
        exact_node_budget=getattr(args, "exact_budget", 12),
        exact_backtrack_budget=getattr(args, "exact_backtracks", 20000),
    )


def _lint_config_from_args(args: argparse.Namespace):
    """Build a :class:`repro.lint.LintConfig` from parsed lint flags."""
    from .lint import LintConfig

    severity = _severity_overrides(args)
    enable = set(getattr(args, "enable", None) or [])
    if getattr(args, "differential", False):
        enable.add("SCHED490")
    try:
        return LintConfig(
            disable=frozenset(getattr(args, "disable", None) or []),
            enable=frozenset(enable),
            select=frozenset(getattr(args, "rule", None) or []),
            severity=severity,
            strict=getattr(args, "lint", None) == "strict",
            differential_sample=getattr(args, "sample", 1),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _lint_loops(args: argparse.Namespace):
    """Collect the loops a ``repro lint`` invocation targets.

    Positional paths may be single-loop files or multi-loop corpus
    files (detected by the ``== name ==`` headers); with no explicit
    source the bundled corpus is analyzed.
    """
    loops = []
    for path in args.paths:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as handle:
                text = handle.read()
        if any(
            line.lstrip().startswith("==") for line in text.splitlines()
        ):
            loops.extend(loads_corpus(text))
        else:
            loops.append(parse_loop(text, name=path))
    if args.kernels:
        loops.extend(all_kernels())
    if args.suite:
        loops.extend(paper_suite(args.suite))
    if args.bundled or not loops:
        loops.extend(bundled_corpus())
    unique = {}
    for loop in loops:
        unique.setdefault(loop.name, loop)
    return list(unique.values())


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (
        LintReport,
        LintTarget,
        lint_corpus_deep,
        lint_machine,
        render,
        run_lint,
    )

    machine = _machine(args.machine)
    config = _lint_config_from_args(args)
    loops = _lint_loops(args)
    variant = VARIANTS[args.variant]
    report = LintReport()
    if args.fast:
        # Shallow pass: graph + machine rules, no compilation.
        report.extend(lint_machine(machine, config))
        report.extend(run_lint(
            (LintTarget(name=ddg.name, ddg=ddg) for ddg in loops),
            config,
        ))
    elif args.workers >= 2 and len(loops) > 1:
        # Parallel deep pass over the warm worker pool: the machine
        # in the parent, one task per loop; per-loop reports merge
        # back in suite order, so the rendered output is
        # byte-identical to a serial run.
        from .service import map_tasks

        report.extend(lint_machine(machine, config))
        payloads = [(ddg, machine, config, variant) for ddg in loops]
        for loop_report in map_tasks(
            "lint_loop", payloads, workers=args.workers
        ):
            report.extend(loop_report)
    else:
        report.extend(lint_corpus_deep(loops, machine, config, variant))
    rendered = render(report, args.format)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output} ({report.summary()})")
    else:
        print(rendered)
    return 0 if args.exit_zero else report.exit_code


def _cmd_certify(args: argparse.Namespace) -> int:
    from .certify.gate import certify_loop_report
    from .lint import render
    from .lint.engine import LintReport

    machine = _machine(args.machine)
    variant = VARIANTS[args.variant]
    loops = _lint_loops(args)
    severity = _severity_overrides(args)
    certify_config = _certify_config_from_args(args)
    report = LintReport()
    if args.workers >= 2 and len(loops) > 1:
        # One warm-pool task per loop; merge in suite order so the
        # rendered report is byte-identical to a serial run.
        from .service import map_tasks

        payloads = [
            (ddg, machine, variant, certify_config, severity)
            for ddg in loops
        ]
        for loop_report in map_tasks(
            "certify_loop", payloads, workers=args.workers
        ):
            report.extend(loop_report)
    else:
        for ddg in loops:
            report.extend(
                certify_loop_report(
                    ddg, machine, variant, certify_config, severity
                )
            )
    rendered = render(report, args.format)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output} ({report.summary()})")
    else:
        print(rendered)
    return 0 if args.exit_zero else report.exit_code


def _add_lint_select_flags(parser: argparse.ArgumentParser) -> None:
    """Rule-selection flags shared by ``lint`` and the ``--lint`` gates."""
    parser.add_argument(
        "--disable", action="append", default=None, metavar="CODE",
        help="disable a rule (repeatable), e.g. --disable DDG105",
    )
    parser.add_argument(
        "--enable", action="append", default=None, metavar="CODE",
        help="enable a default-off rule (repeatable), "
             "e.g. --enable SCHED490",
    )
    parser.add_argument(
        "--severity", action="append", default=None,
        metavar="CODE=LEVEL",
        help="override a rule's severity (error/warning/info), "
             "repeatable",
    )
    parser.add_argument(
        "--rule", action="append", default=None, metavar="CODE",
        help="run only rules matching a code or family prefix "
             "(repeatable), e.g. --rule DF705 or --rule DF7; selected "
             "default-off rules run too",
    )
    parser.add_argument(
        "--differential", action="store_true",
        help="shorthand for --enable SCHED490 (cross-check against "
             "the frozen slow-reference pipeline)",
    )
    parser.add_argument(
        "--sample", type=int, default=1, metavar="N",
        help="run the differential rule on one loop in N (default "
             "every sampled loop)",
    )


def _add_lint_gate_flag(parser: argparse.ArgumentParser) -> None:
    """The ``--lint[=strict]`` gate flag on compile/experiment."""
    parser.add_argument(
        "--lint", nargs="?", const="on", choices=["on", "strict"],
        default=None, metavar="strict",
        help="lint every compiled artifact; '--lint strict' treats "
             "lint errors as compilation failures",
    )


def _add_certify_gate_flag(parser: argparse.ArgumentParser) -> None:
    """The ``--certify[=strict]`` gate flag on compile/experiment."""
    parser.add_argument(
        "--certify", nargs="?", const="on", choices=["on", "strict"],
        default=None, metavar="strict",
        help="emit + independently verify a certificate for every "
             "compiled artifact; '--certify strict' treats "
             "certificate failures as compilation failures",
    )
    _add_exact_flags(parser)


def _add_exact_flags(parser: argparse.ArgumentParser) -> None:
    """The exact-oracle flag set shared by ``certify`` and the gates."""
    parser.add_argument(
        "--exact", action="store_true",
        help="also run the bounded exact II-tightness oracle on every "
             "verified certificate (loose IIs report as CERT690)",
    )
    parser.add_argument(
        "--exact-budget", type=int, default=12, metavar="NODES",
        help="largest annotated-graph size the exact oracle searches "
             "(default 12)",
    )
    parser.add_argument(
        "--exact-backtracks", type=int, default=20000, metavar="N",
        help="row bindings the exact search may try before giving up "
             "as budget_exhausted (default 20000)",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The experiment-engine flag set (see docs/EXPERIMENT_ENGINE.md)."""
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fan loops out over N worker processes "
             "(0 = in-process)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="abort on the first failing loop instead of recording "
             "it as a failed outcome",
    )
    parser.add_argument(
        "--timeout", type=float, default=0.0, metavar="SECONDS",
        help="per-loop wall-time budget; over-budget loops are "
             "skipped as 'timeout' outcomes (0 = no budget)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist per-loop outcomes keyed by content hash",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay cached outcomes from --cache-dir instead of "
             "recompiling them",
    )


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` / ``--trace-out`` / ``--trace-chrome``
    flag set."""
    parser.add_argument(
        "--trace", action="store_true",
        help="print the span tree, phase profile, and counters",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the trace as a JSONL event log",
    )
    parser.add_argument(
        "--trace-chrome", default=None, metavar="FILE",
        help="write the trace as Chrome trace-event JSON "
             "(loadable in Perfetto / chrome://tracing)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cluster assignment for modulo scheduling "
                    "(Nystrom & Eichenberger, MICRO-31 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser(
        "compile", help="assign + schedule one loop file ('-' for stdin)"
    )
    compile_parser.add_argument("loop", help="loop file in the text format")
    compile_parser.add_argument(
        "--machine", default="2gp", help=f"one of {sorted(MACHINES)}"
    )
    compile_parser.add_argument(
        "--variant", default="heuristic-iterative",
        choices=sorted(VARIANTS),
    )
    compile_parser.add_argument(
        "--dot", default=None, metavar="FILE",
        help="also write the annotated graph as Graphviz DOT",
    )
    compile_parser.add_argument(
        "--emit", action="store_true",
        help="print the expanded pipelined code (flat + predicated)",
    )
    compile_parser.add_argument(
        "--simulate", type=int, default=0, metavar="N",
        help="execute N iterations on the simulated machine and "
             "validate against the sequential reference",
    )
    _add_trace_flags(compile_parser)
    _add_lint_gate_flag(compile_parser)
    _add_certify_gate_flag(compile_parser)
    _add_lint_select_flags(compile_parser)
    compile_parser.set_defaults(func=_cmd_compile)

    trace_parser = sub.add_parser(
        "trace",
        help="compile one loop with tracing on and print the span "
             "tree, phase profile, and counters",
    )
    trace_parser.add_argument("loop", help="loop file ('-' for stdin)")
    trace_parser.add_argument(
        "--machine", default="2gp", help=f"one of {sorted(MACHINES)}"
    )
    trace_parser.add_argument(
        "--variant", default="heuristic-iterative",
        choices=sorted(VARIANTS),
    )
    trace_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSONL event log",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    profile_parser = sub.add_parser(
        "profile",
        help="compile one loop with the deterministic profiler on and "
             "print the CPU-by-phase and top-functions report "
             "(see docs/PROFILING.md)",
    )
    profile_parser.add_argument("loop", help="loop file ('-' for stdin)")
    profile_parser.add_argument(
        "--machine", default="2gp", help=f"one of {sorted(MACHINES)}"
    )
    profile_parser.add_argument(
        "--variant", default="heuristic-iterative",
        choices=sorted(VARIANTS),
    )
    profile_parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows in the top-functions table (default 20)",
    )
    profile_parser.add_argument(
        "--sort", default="cpu", choices=["cpu", "calls", "name"],
        help="top-functions sort order (default cpu)",
    )
    profile_parser.add_argument(
        "--tree", action="store_true",
        help="also print the span tree (with per-span CPU)",
    )
    profile_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the profiled trace as a JSONL event log",
    )
    profile_parser.add_argument(
        "--cprofile", default=None, metavar="FILE",
        help="also run an unprofiled compile under cProfile and dump "
             "binary pstats to FILE",
    )
    profile_parser.set_defaults(func=_cmd_profile)

    bench_parser = sub.add_parser(
        "bench",
        help="benchmark observatory: run the suite, append to the "
             "perf history, gate on regressions",
    )
    bench_parser.add_argument(
        "action", choices=["run", "check", "report"],
        help="run: execute benchmarks + append artifacts to history; "
             "check: compare the newest entries against budgets and "
             "the last-N baseline; report: render the history table",
    )
    bench_parser.add_argument(
        "benchmarks", nargs="*",
        help="benchmark names for 'run' (default: every registered "
             "observatory benchmark)",
    )
    bench_parser.add_argument(
        "--history", default="results/bench_history.jsonl",
        metavar="FILE", help="history store location",
    )
    bench_parser.add_argument(
        "--smoke", action="store_true",
        help="run with the 100-loop smoke suite size (CI perf gate)",
    )
    bench_parser.add_argument(
        "--suite-size", type=int, default=0, metavar="N",
        help="explicit REPRO_SUITE_SIZE for the run (overrides "
             "--smoke)",
    )
    bench_parser.add_argument(
        "--repo-root", default=".", metavar="DIR",
        help="repository root the benchmarks run in (default .)",
    )
    bench_parser.add_argument(
        "--tolerance", type=float, default=0.15, metavar="FRACTION",
        help="allowed fractional slowdown vs the baseline mean before "
             "'check' fails (default 0.15)",
    )
    bench_parser.add_argument(
        "--baseline", type=int, default=5, metavar="N",
        help="how many prior entries form the regression baseline "
             "(default 5)",
    )
    bench_parser.add_argument(
        "--exit-zero", action="store_true",
        help="report violations but exit 0 (report-only CI runs)",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    stats_parser = sub.add_parser(
        "stats", help="print Table 1 statistics of the loop suite"
    )
    stats_parser.add_argument("--loops", type=int, default=1327)
    stats_parser.set_defaults(func=_cmd_stats)

    experiment_parser = sub.add_parser(
        "experiment", help="one machine vs its unified baseline"
    )
    experiment_parser.add_argument(
        "--machine", default="2gp", help=f"one of {sorted(MACHINES)}"
    )
    experiment_parser.add_argument(
        "--variant", default="heuristic-iterative",
        choices=sorted(VARIANTS),
    )
    experiment_parser.add_argument("--loops", type=int, default=250)
    experiment_parser.add_argument(
        "--json", action="store_true",
        help="emit the deviation histogram + obs counters as JSON",
    )
    _add_engine_flags(experiment_parser)
    _add_trace_flags(experiment_parser)
    _add_lint_gate_flag(experiment_parser)
    _add_certify_gate_flag(experiment_parser)
    _add_lint_select_flags(experiment_parser)
    experiment_parser.set_defaults(func=_cmd_experiment)

    lint_parser = sub.add_parser(
        "lint",
        help="static-analysis rules over loops / corpora / machines "
             "(see docs/LINTING.md)",
    )
    lint_parser.add_argument(
        "paths", nargs="*",
        help="loop or corpus files ('-' for stdin); default is the "
             "bundled corpus",
    )
    lint_parser.add_argument(
        "--machine", default="2gp", help=f"one of {sorted(MACHINES)}"
    )
    lint_parser.add_argument(
        "--variant", default="heuristic-iterative",
        choices=sorted(VARIANTS),
    )
    lint_parser.add_argument(
        "--kernels", action="store_true",
        help="also lint every hand-written paper kernel",
    )
    lint_parser.add_argument(
        "--bundled", action="store_true",
        help="also lint the bundled corpus (the default when no other "
             "source is given)",
    )
    lint_parser.add_argument(
        "--suite", type=int, default=0, metavar="N",
        help="also lint paper_suite(N)",
    )
    lint_parser.add_argument(
        "--fast", action="store_true",
        help="shallow pass only (graph + machine rules, no "
             "compilation)",
    )
    lint_parser.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"],
        help="output format (default text)",
    )
    lint_parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the rendered report to a file instead of stdout",
    )
    lint_parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="deep-lint loops over N worker processes (report is "
             "byte-identical to a serial run)",
    )
    lint_parser.add_argument(
        "--exit-zero", action="store_true",
        help="always exit 0, even with error-severity findings "
             "(report-only CI runs)",
    )
    _add_lint_select_flags(lint_parser)
    lint_parser.set_defaults(func=_cmd_lint)

    certify_parser = sub.add_parser(
        "certify",
        help="emit + independently verify compilation certificates "
             "(see docs/CERTIFICATES.md)",
    )
    certify_parser.add_argument(
        "paths", nargs="*",
        help="loop or corpus files ('-' for stdin); default is the "
             "bundled corpus",
    )
    certify_parser.add_argument(
        "--machine", default="2gp", help=f"one of {sorted(MACHINES)}"
    )
    certify_parser.add_argument(
        "--variant", default="heuristic-iterative",
        choices=sorted(VARIANTS),
    )
    certify_parser.add_argument(
        "--kernels", action="store_true",
        help="also certify every hand-written paper kernel",
    )
    certify_parser.add_argument(
        "--bundled", action="store_true",
        help="also certify the bundled corpus (the default when no "
             "other source is given)",
    )
    certify_parser.add_argument(
        "--suite", type=int, default=0, metavar="N",
        help="also certify paper_suite(N)",
    )
    certify_parser.add_argument(
        "--fast", action="store_true",
        help="certificate verification only: never run the exact "
             "oracle (overrides --exact)",
    )
    certify_parser.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"],
        help="output format (default text)",
    )
    certify_parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the rendered report to a file instead of stdout",
    )
    certify_parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="certify loops over N worker processes (report is "
             "byte-identical to a serial run)",
    )
    certify_parser.add_argument(
        "--exit-zero", action="store_true",
        help="always exit 0, even with certificate failures "
             "(report-only CI runs)",
    )
    certify_parser.add_argument(
        "--severity", action="append", default=None,
        metavar="CODE=LEVEL",
        help="override a diagnostic's severity (error/warning/info), "
             "repeatable",
    )
    _add_exact_flags(certify_parser)
    certify_parser.set_defaults(func=_cmd_certify)

    campaign_parser = sub.add_parser(
        "campaign", help="regenerate every paper table and figure"
    )
    campaign_parser.add_argument("--loops", type=int, default=250)
    campaign_parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the markdown report to a file instead of stdout",
    )
    campaign_parser.add_argument(
        "--skip-table3", action="store_true",
        help="skip the slow 6/8-cluster Table 3 sweep",
    )
    campaign_parser.add_argument("--verbose", action="store_true")
    _add_engine_flags(campaign_parser)
    campaign_parser.set_defaults(func=_cmd_campaign)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
