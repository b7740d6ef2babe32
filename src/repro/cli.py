"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run APP``
    Run one application on one protocol and print the paper-style statistics
    row (``--protocol``, ``--nprocs``, ``--variant``).  The app's
    ``PROGRAMS`` table says which variants each protocol's programming model
    has (``list`` prints them); any other pair exits 2 before anything
    runs.  Every observer is a flag of this one command:

    * ``--trace`` records structured events and prints where the time went
      (per-process breakdown, message mix); ``--trace-out`` exports a Chrome
      trace and ``--critical-path`` walks the causal critical path (each
      implies ``--trace``); see docs/observability.md.
    * ``--metrics`` / ``--metrics-out`` fold contention metrics from the
      trace; this is the per-view report (acquire waits by view and mode,
      bytes per grant by view) beside the per-page diff tables.
    * ``--check-consistency`` records the access history and machine-checks
      it against the protocol family's memory model (the consistency oracle,
      :mod:`repro.obs.oracle`); exit code 4 when the oracle finds
      violations, ``--findings-out`` dumps the structured findings as JSON.
    * ``--host-trace`` records *wall-clock* spans of the real work (build,
      execute, extract, verify) on a second tracer and prints a host-time
      breakdown whose categories sum to measured wall time; ``--trace-out``
      exports its rows after the simulated ones, as the ``host`` process.
    * ``--faults PLAN.json`` installs a scripted
      :class:`repro.faults.FaultPlan`, the one way to inject loss (a ``loss``
      episode); see docs/robustness.md.  ``--faults-out PATH`` dumps the
      exact active plan before the run, so any failure leaves a one-command
      repro artifact behind.  A run that cannot complete — retry budget
      exhausted or a fail-stop crash episode — prints a one-screen
      structured diagnostic (including the active fault plan and seeds) and
      exits with code 3 instead of a traceback; with the oracle on, the
      partial history is still checked (and exit 4 beats exit 3).
``check APP``
    ``run`` preset: ``--check-consistency`` on, 8 processors by default.
``trace APP``
    ``run`` preset: ``--trace`` on, 8 processors by default.
``table N``
    Regenerate paper table N (1–9) and print it with the paper's published
    values alongside.
``sweep APP``
    Print a speedup table for an application across processor counts.
    ``sweep --faults [PLAN.json]`` instead runs the fault-degradation grid
    (slowdown vs loss rate per protocol, at one ``--procs`` value) and
    writes ``BENCH_faults.json``; ``--check-consistency`` checks every
    matrix (or grid) cell, and is refused with a speedup table.
``profile APP``
    Run one application under ``cProfile`` and print the hottest functions
    (``--top``, ``--sort``); ``--profile-out`` dumps the raw stats for
    snakeviz/pstats.  ``--trace`` attributes *simulated* time, ``profile``
    attributes *wall* time inside the engine and protocol code.
``report SPEC SPEC [SPEC ...]``
    Track every number of N >= 2 same-kind reports (files or
    ``git:REV[:path]`` specs, oldest first: ``BENCH_sweep.json``,
    ``BENCH_faults.json`` or a ``benchmarks/e2e`` results file) and flag
    regressions over each consecutive pair — simulated statistics exactly,
    the gated host numbers at ``--throughput-tolerance``; ``--check`` makes
    regressions a non-zero exit for CI.
``list``
    Show the available applications, protocols, variants (read from each
    app's ``PROGRAMS`` table) and tables.
``adversary APP``
    Seeded adversarial fault sampling (:mod:`repro.faults.adversary`):
    evaluate ``--budget`` random fault plans against one protocol
    (``--protocol``, ``--seed``), delta-debug the worst to a 1-minimal plan,
    and print both.  Exit code 4 if the worst plan produces a
    consistency violation (a protocol bug, the jackpot fitness class).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain

from repro.apps import APPS
from repro.apps.common import program_builder, run_app
from repro.faults import EXIT_RUN_FAILURE, RunAborted, format_failure
from repro.protocols import PROTOCOLS

def _no_program(app_name: str, protocols, variant: str = "default") -> bool:
    """Say so (and return True) when the app has no program for ``variant``
    under one of ``protocols``: the one lookup :func:`run_app` makes too."""
    try:
        for protocol in protocols:
            program_builder(APPS[app_name], protocol, variant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return True
    return False


def _load_faults(args: argparse.Namespace):
    """Resolve --faults PLAN.json into a FaultPlan (or None)."""
    if not args.faults:
        return None
    from repro.faults import FaultPlan, FaultPlanError

    try:
        return FaultPlan.load(args.faults)
    except (OSError, FaultPlanError) as exc:
        raise SystemExit(f"error: --faults {args.faults}: {exc}") from exc


def _dump_faults_out(args: argparse.Namespace, plan) -> None:
    """Honour --faults-out: dump the exact active plan JSON.

    Written *before* the run so even an aborted (or crashed) run leaves the
    one-command repro artifact behind: ``--faults <dumped file>`` replays it.
    """
    if not args.faults_out:
        return
    from repro.faults import FaultPlan

    (plan if plan is not None else FaultPlan()).dump(args.faults_out)
    print(f"wrote active fault plan to {args.faults_out}")


def _netcfg_override(args: argparse.Namespace):
    """Build a NetConfig when --drop-seed is given."""
    if args.drop_seed is None:
        return None
    from repro.net.config import NetConfig

    return NetConfig(drop_seed=args.drop_seed)


def _print_message_mix(net) -> None:
    by_kind = net.snapshot()["by_kind"]
    if not by_kind:
        return
    print()
    print("Message mix")
    print("-----------")
    mix = sorted(by_kind.items(), key=lambda kv: (-kv[1]["bytes"], kv[0]))
    for kind, rec in mix:
        name = kind.split(".", 1)[-1]
        print(f"  {name:<20} {rec['count']:>8} msgs  {rec['bytes']:>12,} bytes")


def _check_consistency(
    oracle, protocol: str, nprocs: int, args: argparse.Namespace,
    aborted: bool = False,
) -> int:
    """Check a recorded history, print the report, return 0 or 4."""
    from repro.obs.oracle import EXIT_CONSISTENCY, check_history, format_oracle_report

    report = check_history(oracle, nprocs=nprocs, protocol=protocol, aborted=aborted)
    print()
    print(format_oracle_report(report))
    if args.findings_out:
        report.write_json(args.findings_out)
        print(f"wrote consistency findings to {args.findings_out}")
    return EXIT_CONSISTENCY if report.verdict == "violations" else 0


def _write_trace_out(tracer, args: argparse.Namespace, host) -> None:
    """Honour --trace-out: the run's rows, the host tracer's (if any) after
    the simulated ones, as one Chrome trace."""
    from repro.obs import write_chrome_trace

    rows = tracer if host is None else chain(tracer.events, host.events)
    # the writer schema-checks in the pass that writes and leaves no file
    # behind on failure: an unbalanced trace (a span opened but never
    # closed) silently renders wrong in Perfetto, so fail loudly
    try:
        write_chrome_trace(rows, args.trace_out)
    except ValueError as exc:
        raise SystemExit(f"error: trace failed schema validation: {exc}") from exc
    print(f"wrote Chrome trace to {args.trace_out} (open in https://ui.perfetto.dev)")


def _cmd_run(args: argparse.Namespace) -> int:
    """The one run body; ``check`` and ``trace`` are presets of its flags."""
    if _no_program(args.app, (args.protocol,), args.variant):
        return 2
    from repro import obs

    tracer = metrics = oracle = host = None
    if args.trace or args.trace_out or args.critical_path:
        tracer = obs.EventTracer()
    show_metrics = args.metrics or args.metrics_out
    if show_metrics:
        metrics = obs.Metrics()
    if args.check_consistency or args.findings_out:
        oracle = obs.AccessRecorder()
    if args.host_trace:
        host = obs.EventTracer()
    plan = _load_faults(args)
    _dump_faults_out(args, plan)
    try:
        result = run_app(
            APPS[args.app],
            args.protocol,
            args.nprocs,
            variant=args.variant,
            verify=not args.no_verify,
            netcfg=_netcfg_override(args),
            tracer=tracer,
            metrics=metrics,
            oracle=oracle,
            faults=plan,
            host=host,
        )
    except RunAborted as exc:
        if oracle is None:
            raise
        # the run failed on an injected fault: still check the partial
        # history — a fault may cost time, never consistency
        print(format_failure(exc.failure), file=sys.stderr)
        code = _check_consistency(
            oracle, args.protocol, args.nprocs, args, aborted=True
        )
        return code or EXIT_RUN_FAILURE
    status = "verified against sequential reference" if result.verified else "NOT verified"
    print(f"{args.app} on {args.protocol}, {args.nprocs} processors ({status})")
    for key, value in result.table_row().items():
        print(f"  {key:<24} {value}")
    if tracer is not None:
        print()
        print(obs.flame_summary(tracer))
        _print_message_mix(result.net)
        if args.critical_path:
            print()
            print(obs.format_critical_path(obs.compute_critical_path(tracer)))
    if show_metrics:
        print()
        print(obs.format_contention(metrics))
        if args.metrics_out:
            metrics.write_json(args.metrics_out)
            print(f"wrote metrics snapshot to {args.metrics_out}")
    if host is not None:
        print()
        print(obs.format_host_breakdown(obs.host_breakdown(host)))
    if args.trace_out:
        _write_trace_out(tracer, args, host)
    if oracle is not None:
        return _check_consistency(oracle, args.protocol, args.nprocs, args)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Host-CPU profile of one run."""
    if _no_program(args.app, (args.protocol,), args.variant):
        return 2
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    result = run_app(
        APPS[args.app], args.protocol, args.nprocs,
        variant=args.variant, verify=not args.no_verify,
    )
    prof.disable()
    print(
        f"{args.app} on {args.protocol}, {args.nprocs} processors — "
        f"{result.time:.6f} simulated seconds, {result.events} events"
    )
    print()
    stats = pstats.Stats(prof)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    if args.profile_out:
        stats.dump_stats(args.profile_out)
        print(f"wrote profile data to {args.profile_out} "
              "(inspect with pstats or snakeviz)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import subprocess

    from repro.obs import (
        DEFAULT_THROUGHPUT_TOLERANCE,
        compute_trend,
        format_trend,
        load_report,
    )

    tolerance = args.throughput_tolerance
    if tolerance is None:
        tolerance = DEFAULT_THROUGHPUT_TOLERANCE
    try:
        docs = [load_report(spec) for spec in args.specs]
        trend = compute_trend(docs, args.specs, tolerance=tolerance)
    except (ValueError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_trend(trend, verbose=args.verbose))
    if args.check and trend.regressions:
        print(
            f"error: {len(trend.regressions)} regression(s) beyond tolerance",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.bench.experiments import run_table

    print(run_table(args.number))
    return 0


def _oracle_exit(reports: list, what: str) -> int:
    """Exit code of a checked sweep: 4 iff any cell's oracle report is bad."""
    from repro.obs.oracle import EXIT_CONSISTENCY

    bad = sum(1 for r in reports if (r or {}).get("verdict") == "violations")
    if bad:
        print(f"error: consistency oracle found violations in {bad} {what}(s)",
              file=sys.stderr)
        return EXIT_CONSISTENCY
    print(f"consistency oracle: all {len(reports)} {what}s clean")
    return 0


def _cmd_sweep_faults(args: argparse.Namespace, jobs: int, cache_dir) -> int:
    """`sweep --faults [PLAN]`: the per-protocol degradation grid."""
    from repro.bench.degradation import (
        DEFAULT_FAULTS_OUTPUT,
        format_degradation_grid,
        run_degradation_grid,
        write_degradation_report,
    )

    app = args.app or "is"
    if args.procs is not None and len(args.procs) > 1:
        print("error: the degradation grid runs at one --procs value, "
              f"got {len(args.procs)}", file=sys.stderr)
        return 2
    if _no_program(app, args.protocols):
        return 2
    report = run_degradation_grid(
        app=app,
        nprocs=args.procs[0] if args.procs else 8,
        protocols=tuple(args.protocols),
        loss_rates=tuple(args.loss_rates),
        seed=args.faults_seed,
        base_plan=_load_faults(args),  # a path: layer the loss sweep over that plan
        check=args.check_consistency,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    print(format_degradation_grid(report))
    out = args.faults_out or DEFAULT_FAULTS_OUTPUT
    write_degradation_report(report, out)
    print(f"wrote {out}")
    if args.check_consistency:
        return _oracle_exit(
            [c.get("consistency") for c in report["grid"]], "grid cell")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench import sweep as sweep_mod

    cache_dir = None if args.no_cache else (args.cache_dir or sweep_mod.DEFAULT_CACHE_DIR)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if args.faults is not None:
        return _cmd_sweep_faults(args, jobs, cache_dir)
    if args.app is None:
        # full benchmark matrix -> consolidated BENCH_sweep.json
        report = sweep_mod.run_sweep(
            sweep_mod.default_cells(), jobs=jobs, cache_dir=cache_dir,
            check=args.check_consistency,
        )
        report_path = args.report or sweep_mod.DEFAULT_OUTPUT
        sweep_mod.write_report(report, report_path)
        for cell in report.cells:
            tag = "cached" if cell.cache_hit else f"{cell.wall_seconds:6.2f}s"
            c = cell.cell
            consistency = getattr(cell.result, "consistency", None)
            oracle_tag = f"  oracle={consistency['verdict']}" if consistency else ""
            print(
                f"  {c.app:<6} {c.protocol:<6} {c.variant:<8} {c.nprocs:>2}p"
                f"  [{tag}]  {cell.events_per_sec:>7} ev/s  fp={cell.fingerprint()}"
                f"{oracle_tag}"
            )
        print(
            f"{len(report.cells)} cells in {report.wall_seconds:.2f}s "
            f"({report.hits} cached, jobs={report.jobs}); wrote {report_path}"
        )
        if args.check_consistency:
            return _oracle_exit(
                [getattr(c.result, "consistency", None) for c in report.cells],
                "cell")
        return 0
    from repro.bench.runner import Entry, speedup_experiment
    from repro.bench.tables import format_speedup_table

    if args.check_consistency:
        print("error: --check-consistency checks the full matrix or the "
              "degradation grid, not a speedup table", file=sys.stderr)
        return 2
    if _no_program(args.app, args.protocols):
        return 2
    entries = tuple(Entry(proto, proto) for proto in args.protocols)
    speedups = speedup_experiment(
        APPS[args.app], entries, proc_counts=tuple(args.procs or (2, 4, 8, 16)),
        jobs=jobs, cache_dir=cache_dir,
    )
    print(format_speedup_table(f"Speedup of {args.app}", speedups))
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    """Adversarial fault sampling against one cell."""
    import json

    from repro.obs.oracle import EXIT_CONSISTENCY

    cache_dir = None
    if not args.no_cache:
        from repro.bench.sweep import DEFAULT_CACHE_DIR

        cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    from repro.faults import FaultPlan
    from repro.faults.adversary import search

    result = search(
        app=args.app, protocol=args.protocol, nprocs=args.nprocs,
        budget=args.budget, seed=args.seed,
        cache_dir=cache_dir, shrink=not args.no_shrink, log=print,
    )
    best = result.best
    print()
    print(
        f"adversary — {args.app} on {args.protocol}, {args.nprocs} processors: "
        f"{result.budget} random plans evaluated (seed {result.seed})"
    )
    print(
        f"  baseline  {result.baseline_time:.6f} simulated s; winner class "
        f"{best['class']}, magnitude {best['magnitude']}"
        + (f" (slowdown {best['slowdown']}x)" if best["slowdown"] else "")
    )
    print(f"  winning plan ({best['episodes']} episode(s)):")
    print("    " + json.dumps(best["plan"], sort_keys=True))
    if result.shrunk is not None:
        print(
            f"  shrunk to {result.shrunk['episodes']} episode(s) "
            f"({result.shrink_evals} shrink evals), class "
            f"{result.shrunk['class']}, magnitude {result.shrunk['magnitude']}:"
        )
        print("    " + json.dumps(result.shrunk["plan"], sort_keys=True))
    if args.plan_out:
        FaultPlan.from_json(best["plan"]).dump(args.plan_out)
        print(f"wrote winning plan to {args.plan_out}")
    if args.shrunk_out and result.shrunk is not None:
        FaultPlan.from_json(result.shrunk["plan"]).dump(args.shrunk_out)
        print(f"wrote shrunk plan to {args.shrunk_out}")
    if best["class"] == "consistency":
        print(
            "error: the winning plan produces consistency violations — "
            "a protocol bug, not a slow cell",
            file=sys.stderr,
        )
        return EXIT_CONSISTENCY
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("applications:")
    for name in APPS:
        variants = dict.fromkeys(variant for _, variant in APPS[name].PROGRAMS)
        print(f"  {name:<8} variants: {', '.join(variants)}")
    print("protocols:", ", ".join(sorted(PROTOCOLS)), "+ mpi (NN only)")
    print("tables: 1-9 (paper evaluation section); `python -m repro table N`")
    return 0


def _count(text: str) -> int:
    """``type=`` of every count flag (ranks, workers, plans): an int >= 1, so
    argparse refuses anything else with a usage message and exit code 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _tolerance(text: str) -> float:
    """``type=`` of ``--throughput-tolerance``: a finite fraction >= 0 (a NaN
    one would pass every slowdown, a negative one flag identical reports)."""
    value = _float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _probability(text: str) -> float:
    """``type=`` of ``--loss-rates``: a probability in [0, 1], NaN refused."""
    value = _float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be a probability in [0, 1], got {text}")
    return value


def _add_cell_flags(p: argparse.ArgumentParser, nprocs: int) -> None:
    """The five flags naming one cell (``run``/``check``/``trace``/``profile``)."""
    p.add_argument("app", choices=sorted(APPS))
    p.add_argument("--protocol", default="vc_sd", choices=[*sorted(PROTOCOLS), "mpi"])
    p.add_argument("--nprocs", type=_count, default=nprocs)
    p.add_argument("--variant", default="default")
    p.add_argument("--no-verify", action="store_true")


def _add_run_command(sub, name: str, help: str, nprocs: int = 16, **preset) -> None:
    """Add one name of the run body: the full flag set, then its preset.

    Called once per name so each subparser owns its actions — one shared
    ``parents=[...]`` parser would share them, and ``set_defaults`` rewrites
    the actions it names, so every name would end up with the last preset.
    """
    p = sub.add_parser(name, help=help)
    _add_cell_flags(p, nprocs)
    p.add_argument("--trace", action="store_true",
                   help="record structured events; print where the time went "
                   "(per-process breakdown, message mix)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a Chrome trace-event JSON file, open in "
                   "https://ui.perfetto.dev (implies --trace)")
    p.add_argument("--critical-path", action="store_true",
                   help="walk the causal critical path and print its "
                   "per-category attribution and wait slack (implies --trace)")
    p.add_argument("--metrics", action="store_true",
                   help="print the per-view report (acquire_wait_seconds by "
                   "view and mode, grant_bytes by view) and the per-page "
                   "contention tables, folded from the trace")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the metrics snapshot as JSON (implies --metrics)")
    p.add_argument("--check-consistency", action="store_true",
                   help="record the access history and machine-check it "
                   "against the protocol's memory model "
                   "(exit 4 on violations; docs/observability.md)")
    p.add_argument("--findings-out", default=None, metavar="PATH",
                   help="write the oracle report (verdict, counts and structured "
                   "findings) as JSON (implies --check-consistency)")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="install a scripted fault plan (docs/robustness.md); "
                   "with the oracle on, an aborted run's partial history is "
                   "still checked")
    p.add_argument("--faults-out", default=None, metavar="PATH",
                   help="dump the exact active fault plan JSON before the "
                   "run (replayable with --faults PATH)")
    p.add_argument("--drop-seed", type=int, default=None, metavar="SEED",
                   help="seed for the RED drop stream")
    p.add_argument("--host-trace", action="store_true",
                   help="profile host wall-clock time (monotonic spans "
                   "around build/execute/extract/verify); print a host-time "
                   "breakdown and add host spans to --trace-out")
    p.set_defaults(fn=_cmd_run, **preset)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VOPP reproduction: run the paper's applications and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_command(sub, "run", "run one application")
    _add_run_command(
        sub, "check",
        "run with --check-consistency on: record the access history and "
        "machine-check it against the protocol's memory model "
        "(exit 4 on violations)",
        nprocs=8, check_consistency=True,
    )
    _add_run_command(
        sub, "trace",
        "run with --trace on: print where the time went (optionally "
        "exporting a Perfetto-loadable trace)",
        nprocs=8, trace=True,
    )

    p_profile = sub.add_parser(
        "profile",
        help="run one application under cProfile and print the hottest "
        "functions by host CPU time",
    )
    _add_cell_flags(p_profile, nprocs=16)
    p_profile.add_argument("--top", type=_count, default=25,
                           help="number of functions to print (default 25)")
    p_profile.add_argument("--sort", default="cumulative",
                           choices=("cumulative", "tottime", "ncalls"),
                           help="pstats sort key (default cumulative)")
    p_profile.add_argument("--profile-out", default=None, metavar="PATH",
                           help="dump raw cProfile stats for pstats/snakeviz")
    p_profile.set_defaults(fn=_cmd_profile)

    p_report = sub.add_parser(
        "report",
        help="track every gated number across two or more reports of one "
        "kind (files or git:REV[:path] specs) and flag regressions",
    )
    p_report.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="two or more report specs, oldest first: paths or "
        "git:REV[:path] (default path BENCH_sweep.json)",
    )
    p_report.add_argument("--check", action="store_true",
                          help="exit 1 if any metric regresses beyond tolerance")
    p_report.add_argument(
        "--throughput-tolerance", type=_tolerance, default=None, metavar="FRAC",
        help="relative slowdown allowed on the gated host-time numbers "
        "(default 0.25; simulated metrics are always compared exactly)",
    )
    p_report.add_argument("--verbose", action="store_true",
                          help="print every changed metric, not just the first 40")
    p_report.set_defaults(fn=_cmd_report)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", type=int, choices=range(1, 10))
    p_table.set_defaults(fn=_cmd_table)

    p_sweep = sub.add_parser(
        "sweep",
        help="parallel, cached sweep: the full benchmark matrix (no app) "
        "or a speedup table for one application",
    )
    p_sweep.add_argument("app", nargs="?", default=None, choices=sorted(APPS))
    p_sweep.add_argument(
        "--protocols", nargs="+", default=["lrc_d", "vc_sd"],
        choices=[*sorted(PROTOCOLS), "mpi"],
    )
    p_sweep.add_argument(
        "--procs", nargs="+", type=_count, default=None,
        help="processor counts of the speedup table (default: 2 4 8 16); "
        "the degradation grid takes one (default: 8)",
    )
    p_sweep.add_argument(
        "--jobs", type=_count, default=None,
        help="worker processes (default: CPU count)",
    )
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="ignore and don't write the result cache")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="result cache directory (default: .cache/sweep)")
    p_sweep.add_argument("--report", default=None,
                         help="report path for the full matrix (default: BENCH_sweep.json)")
    p_sweep.add_argument("--faults", nargs="?", const="", default=None,
                         metavar="PLAN.json",
                         help="run the fault-degradation grid (slowdown vs loss "
                         "rate per protocol) instead of the matrix; an optional "
                         "plan file is layered under every cell")
    p_sweep.add_argument("--loss-rates", nargs="+", type=_probability,
                         default=[0.0, 0.002, 0.005, 0.01, 0.02], metavar="P",
                         help="loss rates swept by the degradation grid")
    p_sweep.add_argument("--faults-seed", type=int, default=7,
                         help="FaultPlan seed for the degradation grid")
    p_sweep.add_argument("--faults-out", default=None, metavar="PATH",
                         help="degradation report path (default BENCH_faults.json)")
    p_sweep.add_argument("--check-consistency", action="store_true",
                         help="run every full-matrix (or degradation-grid) cell "
                         "under the consistency oracle; exit 4 if any cell "
                         "has violations")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_adv = sub.add_parser(
        "adversary",
        help="seeded random fault plans against one protocol: keep and shrink "
        "the one that hurts it most (docs/robustness.md)",
    )
    p_adv.add_argument("app", nargs="?", default="is", choices=sorted(APPS))
    p_adv.add_argument("--protocol", default="vc_d", choices=sorted(PROTOCOLS),
                       help="protocol under attack")
    p_adv.add_argument("--nprocs", type=_count, default=8)
    p_adv.add_argument("--budget", type=_count, default=24, metavar="N",
                       help="random fault plans to evaluate (shrinking runs "
                       "extra evaluations afterwards)")
    p_adv.add_argument("--seed", type=int, default=11,
                       help="sampler seed; fixed seed + budget reproduces the "
                       "result bit-identically")
    p_adv.add_argument("--no-shrink", action="store_true",
                       help="skip the delta-debugging shrink of the winner")
    p_adv.add_argument("--plan-out", default=None, metavar="PATH",
                       help="write the winning plan JSON (replay with "
                       "`check --faults PATH`)")
    p_adv.add_argument("--shrunk-out", default=None, metavar="PATH",
                       help="write the shrunk winning plan JSON")
    p_adv.add_argument("--no-cache", action="store_true",
                       help="ignore and don't write the result cache")
    p_adv.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: .cache/sweep)")
    p_adv.set_defaults(fn=_cmd_adversary)

    p_list = sub.add_parser("list", help="show apps, protocols and tables")
    p_list.set_defaults(fn=_cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RunAborted as exc:
        # expected fault outcome (retry budget exhausted / fail-stop crash):
        # one-screen structured diagnostic, pinned exit code — no traceback
        print(format_failure(exc.failure), file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
