"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       simulate one (workload, scheme) pair and print the summary
``compare``   run several schemes on one workload, normalized to Native
``sweep``     fan a (workload x scheme x variant) matrix across supervised
              workers into the shared result cache (crash-isolated,
              resumable)
``serve``     always-on experiment service: watch a spool directory for
              submitted specs, schedule them through the supervised
              pool with admission control and per-spec circuit
              breakers, journal every transition (kill -9 safe),
              drain gracefully on SIGTERM
``soak``      randomized chaos testing under the fail-fast invariant
              watchdog, with failing-schedule minimization
``profile``   time the per-access hot path (deterministic accesses/sec
              microbench over the figure-matrix cases, optional cProfile,
              golden-record drift check)
``check``     model-check the coherence protocols (the Murphi step)
``lint``      static determinism/unit lints + protocol-table analysis
``workloads`` print the Table 1 inventory
``config``    print the Table 2 system configuration
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from . import __version__
from .analysis.report import format_fault_report, format_table
from .coherence import BaseCxlDsmModel, ModelChecker, PipmModel
from .config import FabricConfig, FaultConfig, SystemConfig
from .sim.harness import DEFAULT_SCHEMES, compare_schemes, run_experiment
from .units import pretty_size, pretty_time
from .workloads import WorkloadScale, workload_names
from .workloads.registry import WORKLOADS

_SCALES = ("tiny", "small", "default", "large")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PIPM multi-host CXL-DSM simulator (ASPLOS'26 repro)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload under one scheme")
    run.add_argument("--workload", required=True, choices=workload_names())
    run.add_argument("--scheme", default="pipm")
    run.add_argument("--scale", default="small", choices=_SCALES)
    run.add_argument("--hosts", type=int, default=4)
    run.add_argument("--link-latency-ns", type=float, default=None)
    run.add_argument("--link-bandwidth-gbs", type=float, default=None)
    run.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection spec: a preset (none, flaky, degraded, storm, "
             "switchdown) optionally followed by :key=value overrides, e.g. "
             "'degraded:seed=3,transfer-error-rate=1e-3'",
    )
    run.add_argument(
        "--topology", default=None, metavar="SPEC",
        help="fabric topology spec: a preset (flat, single-switch, "
             "two-tier) optionally followed by :key=value overrides, e.g. "
             "'two-tier:hosts-per-leaf=4,uplink-bandwidth-gbs=10'",
    )

    compare = sub.add_parser("compare", help="compare schemes on a workload")
    compare.add_argument("--workload", required=True,
                         choices=workload_names())
    compare.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES))
    compare.add_argument("--scale", default="small", choices=_SCALES)
    compare.add_argument("--hosts", type=int, default=4)
    compare.add_argument("--faults", default=None, metavar="SPEC",
                         help="fault-injection spec (see 'run --faults')")
    compare.add_argument("--topology", default=None, metavar="SPEC",
                         help="fabric topology spec (see 'run --topology')")

    sweep = sub.add_parser(
        "sweep",
        help="run a (workload x scheme x variant) matrix in parallel",
        description=(
            "Fan the evaluation matrix across a process pool into the "
            "content-addressed result cache; a second invocation over the "
            "same matrix is pure cache hits, and the figure benches "
            "(pytest benchmarks/) read the same cache."
        ),
    )
    sweep.add_argument("--workers", type=int, default=1,
                       help="pool size; 0 = one per CPU; 1 = serial")
    sweep.add_argument("--workloads", default=None,
                       help="comma-separated workload subset "
                            "(default: every Table 1 workload, or "
                            "$REPRO_BENCH_WORKLOADS)")
    sweep.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES))
    sweep.add_argument(
        "--scale", default=None, choices=_SCALES,
        help="trace scale (default: $REPRO_BENCH_SCALE or 'small')",
    )
    sweep.add_argument(
        "--variants", default="base",
        help="comma-separated config variants (see --list-variants)",
    )
    sweep.add_argument(
        "--figures", action="store_true",
        help="the full figure matrix: every variant the fig/table "
             "benches consume",
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help="cache root (default: $REPRO_CACHE_DIR or benchmarks/.cache)",
    )
    sweep.add_argument("--list", action="store_true", dest="list_specs",
                       help="print the expanded specs and exit")
    sweep.add_argument("--list-variants", action="store_true",
                       help="print the known variants and exit")
    sweep.add_argument(
        "--invalidate", action="store_true",
        help="delete every cached result and trace, then exit",
    )
    sweep.add_argument(
        "--require-all-hits", action="store_true",
        help="exit non-zero unless every spec was a cache hit "
             "(CI regression guard)",
    )
    sweep.add_argument(
        "--timeout-s", type=float, default=None, metavar="SECONDS",
        help="per-job timeout; a worker running past it is killed and "
             "recorded as a timeout (default: none)",
    )
    sweep.add_argument(
        "--retries", type=int, default=0,
        help="re-attempts per spec after a failure/timeout (default: 0)",
    )
    sweep.add_argument(
        "--backoff-s", type=float, default=0.25,
        help="base retry backoff; doubles per re-attempt (default: 0.25)",
    )
    sweep.add_argument(
        "--max-backoff-s", type=float, default=60.0,
        help="cap on the doubled retry backoff (default: 60)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip specs the sweep journal records as completed; "
             "re-attempt only failed/missing specs",
    )
    sweep.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any spec failed after its retries "
             "(the default reports failures but exits 0)",
    )

    serve = sub.add_parser(
        "serve",
        help="always-on experiment service (submit/run/status)",
        description=(
            "A persistent daemon over the crash-isolated sweep "
            "substrate: specs spooled into <dir>/spool are admitted "
            "through a bounded queue, executed under the supervised "
            "worker pool, deduped against the content-addressed cache, "
            "and journalled transition-by-transition so kill -9 + "
            "restart resumes without re-running completed work."
        ),
    )
    from .serve.cli import add_serve_arguments

    add_serve_arguments(serve)

    soak = sub.add_parser(
        "soak",
        help="randomized chaos testing with failing-schedule minimization",
        description=(
            "Draw randomized fault schedules and workload/scheme pairs "
            "from one seed, run each under the invariant watchdog in "
            "fail-fast mode, and on any violation or crash delta-debug "
            "the schedule down to a minimal reproducer JSON.  "
            "'soak --replay <file>' re-executes a reproducer "
            "deterministically."
        ),
    )
    soak.add_argument("--seed", type=int, default=0,
                      help="soak seed; every draw derives from it")
    soak.add_argument("--trials", type=int, default=20,
                      help="maximum trials to run (default: 20)")
    soak.add_argument(
        "--budget-s", type=float, default=120.0,
        help="wall-clock budget; no new trial starts past it "
             "(0 = unlimited; default: 120)",
    )
    soak.add_argument("--scale", default="tiny",
                      choices=("tiny", "small", "default"),
                      help="workload scale per trial (default: tiny)")
    soak.add_argument("--hosts", type=int, default=4)
    soak.add_argument("--workloads", default="pr,ycsb",
                      help="comma-separated workload pool to draw from")
    soak.add_argument("--schemes", default="pipm,memtis",
                      help="comma-separated scheme pool to draw from")
    soak.add_argument(
        "--sabotage-rate", type=float, default=0.0, metavar="P",
        help="probability a trial includes a deliberately botched "
             "rollback (self-test of the detection pipeline; default: 0)",
    )
    soak.add_argument(
        "--crash-rate", type=float, default=0.0, metavar="P",
        help="probability a trial includes a host-crash clause "
             "(seeded crash time, optional rejoin; default: 0)",
    )
    soak.add_argument(
        "--minimize-budget", type=int, default=32,
        help="max re-simulations delta debugging may spend (default: 32)",
    )
    soak.add_argument(
        "--artifact-dir", default="soak-artifacts",
        help="where reproducer JSONs are written (default: soak-artifacts)",
    )
    soak.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-execute a reproducer artifact instead of soaking; "
             "exits 0 iff the recorded failure reproduces",
    )
    soak.add_argument(
        "--expect-failure", action="store_true",
        help="invert the exit code: succeed only if a failure was found "
             "and its reproducer replay-verified (pipeline self-test)",
    )

    profile = sub.add_parser(
        "profile",
        help="time the per-access hot path (microbench + cProfile)",
        description=(
            "Run the deterministic core-speed microbench: generate the "
            "figure-matrix cases once (untimed), time SimulationEngine.run "
            "for each, and report accesses/sec against the committed "
            "baseline in benchmarks/results/BENCH_core.json.  "
            "--check-golden compares every SimulationResult record against "
            "the committed golden file and exits non-zero on any drift "
            "(the CI perf-safety net)."
        ),
    )
    profile.add_argument("--scale", default="small", choices=_SCALES)
    profile.add_argument("--hosts", type=int, default=4)
    profile.add_argument(
        "--repeats", type=int, default=1,
        help="fresh engine runs per case; the fastest is reported",
    )
    profile.add_argument(
        "--cases", default=None, metavar="W:S,...",
        help="workload:scheme pairs to time (default: pr:pipm, "
             "pr:native, ycsb:memtis)",
    )
    profile.add_argument(
        "--cprofile", action="store_true",
        help="run the timed region under cProfile and print the top "
             "functions by cumulative time",
    )
    profile.add_argument("--top", type=int, default=25,
                         help="rows of cProfile output (default: 25)")
    profile.add_argument(
        "--baseline", default="benchmarks/results/BENCH_core.json",
        help="bench-trajectory file to compare against",
    )
    profile.add_argument(
        "--check-golden", default=None, metavar="FILE",
        help="fail unless every case's SimulationResult record matches "
             "this golden file byte-for-byte",
    )
    profile.add_argument(
        "--write-golden", default=None, metavar="FILE",
        help="(re)write the golden record file from this run",
    )

    check = sub.add_parser("check", help="model-check the protocols")
    check.add_argument("--hosts", type=int, default=3)

    lint = sub.add_parser(
        "lint",
        help="static determinism/unit lints + protocol-table analysis",
        description=(
            "simcheck: AST lints for the determinism contract the result "
            "cache depends on (wall clocks, unseeded RNG, set-order "
            "iteration, unit and stats discipline) plus a static analyzer "
            "for the coherence TRANSITION_TABLEs (exhaustiveness, "
            "ambiguity, message closure, wait-for cycles)."
        ),
    )
    from .simcheck.cli import add_lint_arguments

    add_lint_arguments(lint)

    sub.add_parser("workloads", help="list the Table 1 workloads")
    sub.add_parser("config", help="show the Table 2 configuration")
    return parser


def _config_for(args) -> SystemConfig:
    cfg = SystemConfig.scaled(num_hosts=args.hosts)
    if getattr(args, "link_latency_ns", None) is not None:
        cfg = cfg.replace_nested("cxl_link", latency_ns=args.link_latency_ns)
    if getattr(args, "link_bandwidth_gbs", None) is not None:
        cfg = cfg.replace_nested(
            "cxl_link", bandwidth_gbs=args.link_bandwidth_gbs
        )
    if getattr(args, "topology", None) is not None:
        cfg = dataclasses.replace(
            cfg, fabric=FabricConfig.parse(args.topology)
        )
    if getattr(args, "faults", None) is not None:
        cfg = dataclasses.replace(cfg, faults=FaultConfig.parse(args.faults))
    if (
        getattr(args, "topology", None) is not None
        or getattr(args, "faults", None) is not None
    ):
        cfg.validate()
    return cfg


def _cmd_run(args) -> int:
    cfg = _config_for(args)
    scale = getattr(WorkloadScale, args.scale)()
    result = run_experiment(args.workload, args.scheme, cfg, scale=scale)
    print(result.summary())
    print(f"  exec time        : {pretty_time(result.exec_time_ns)}")
    print(f"  aggregate IPC    : {result.ipc:.2f}")
    print(f"  local hit rate   : {result.local_hit_rate:.1%}")
    print(f"  migrations       : {result.migrations} "
          f"(demotions {result.demotions})")
    if result.mgmt_ns:
        print(f"  kernel mgmt time : {pretty_time(result.mgmt_ns)}")
    if getattr(args, "faults", None) is not None:
        report = format_fault_report(result.stats)
        if report:
            print(report)
    return 0


def _cmd_compare(args) -> int:
    cfg = _config_for(args)
    scale = getattr(WorkloadScale, args.scale)()
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if "native" not in schemes:
        schemes.insert(0, "native")
    results = compare_schemes(args.workload, schemes, cfg, scale=scale)
    native = results["native"]
    rows = []
    for name, result in results.items():
        rows.append((
            name,
            f"{result.speedup_over(native):.2f}x",
            f"{result.local_hit_rate:.1%}",
            f"{result.inter_host_stall_fraction(native.exec_time_ns):.1%}",
            result.migrations,
        ))
    print(format_table(
        f"{args.workload}: speedup over Native CXL-DSM "
        f"({args.hosts} hosts, {args.scale} scale)",
        ["scheme", "speedup", "local hits", "interhost stalls", "migrations"],
        rows,
    ))
    if getattr(args, "faults", None) is not None:
        for result in results.values():
            print(f"  {result.resilience_summary()}")
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import (
        ResultStore,
        SweepRunner,
        TraceStore,
        VARIANTS,
        build_matrix,
    )

    if args.list_variants:
        for name in VARIANTS:
            print(name)
        return 0
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or (
        "benchmarks/.cache"
    )
    if args.invalidate:
        results = ResultStore(cache_dir).clear()
        traces = TraceStore(cache_dir).clear()
        print(f"invalidated {results} results, {traces} traces "
              f"under {cache_dir}")
        return 0
    scale_name = args.scale or os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale_name not in _SCALES:
        print(f"error: unknown scale {scale_name!r}", file=sys.stderr)
        return 2
    scale = getattr(WorkloadScale, scale_name)()
    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    elif os.environ.get("REPRO_BENCH_WORKLOADS"):
        workloads = [
            w.strip()
            for w in os.environ["REPRO_BENCH_WORKLOADS"].split(",")
            if w.strip()
        ]
    else:
        workloads = list(workload_names())
    unknown = sorted(set(workloads) - set(workload_names()))
    if unknown:
        print(f"error: unknown workloads {unknown}", file=sys.stderr)
        return 2
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    variants = (
        list(VARIANTS)
        if args.figures
        else [v.strip() for v in args.variants.split(",") if v.strip()]
    )
    specs = build_matrix(workloads, schemes, scale=scale, variants=variants)
    if args.list_specs:
        for spec in specs:
            print(f"{spec.key()[:16]}  {spec.label()}")
        print(f"{len(specs)} specs")
        return 0
    workers = args.workers if args.workers != 0 else (os.cpu_count() or 1)
    print(
        f"sweep: {len(specs)} specs "
        f"({len(workloads)} workloads x {len(schemes)} schemes, "
        f"variants: {', '.join(variants)}; scale {scale_name}) "
        f"across {workers} worker{'s' if workers != 1 else ''} "
        f"-> {cache_dir}"
    )
    runner = SweepRunner(
        specs, cache_dir, workers=workers,
        timeout_s=args.timeout_s, retries=args.retries,
        backoff_s=args.backoff_s, max_backoff_s=args.max_backoff_s,
        resume=args.resume,
    )
    try:
        summary = runner.run(progress=print)
    except KeyboardInterrupt:
        print("\ninterrupted: workers stopped, orphan temp files removed; "
              "re-run with --resume to continue", file=sys.stderr)
        return 130
    hit_pct = f"{summary.hit_rate:.0%}"
    line = (
        f"done: {summary.runs} runs, {summary.hits} cache hits ({hit_pct}), "
        f"{summary.misses} simulated"
    )
    if summary.failed:
        line += f", {summary.failed} FAILED"
    if summary.retried:
        line += f", {summary.retried} retried"
    if summary.skipped:
        line += f", {summary.skipped} resumed"
    line += (
        f"; wall {summary.wall_s:.2f}s, work {summary.work_s:.2f}s"
        + (
            f" ({summary.work_s / summary.wall_s:.2f}x parallel efficiency)"
            if summary.wall_s > 0
            else ""
        )
    )
    print(line)
    for failure in summary.failures:
        tail = failure.error.strip().splitlines()
        print(
            f"  failed: {failure.label} [{failure.status}] after "
            f"{failure.attempts} attempt(s): {tail[-1] if tail else '?'}",
            file=sys.stderr,
        )
    if args.require_all_hits and summary.misses:
        print(
            f"error: --require-all-hits, but {summary.misses} specs "
            f"missed the cache",
            file=sys.stderr,
        )
        return 1
    if args.strict and summary.failed:
        print(
            f"error: --strict, and {summary.failed} spec(s) failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args) -> int:
    from .serve.cli import run_serve

    return run_serve(args)


def _cmd_soak(args) -> int:
    from .soak import SoakHarness, replay_artifact

    if args.replay is not None:
        reproduced, actual = replay_artifact(args.replay)
        if reproduced:
            print(f"reproduced: {actual.exc_type} "
                  f"[{', '.join(actual.kinds) or 'crash'}] — "
                  f"{actual.message[:120]}")
            return 0
        if actual is None:
            print("did NOT reproduce: the replayed run completed cleanly",
                  file=sys.stderr)
        else:
            print(f"did NOT reproduce the recorded failure; got "
                  f"{actual.exc_type}: {actual.message[:120]}",
                  file=sys.stderr)
        return 1

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    unknown = sorted(set(workloads) - set(workload_names()))
    if unknown:
        print(f"error: unknown workloads {unknown}", file=sys.stderr)
        return 2
    harness = SoakHarness(
        seed=args.seed,
        trials=args.trials,
        budget_s=args.budget_s,
        scale=args.scale,
        num_hosts=args.hosts,
        workloads=workloads,
        schemes=schemes,
        sabotage_rate=args.sabotage_rate,
        crash_rate=args.crash_rate,
        minimize_budget=args.minimize_budget,
        artifact_dir=args.artifact_dir,
    )
    print(
        f"soak: seed {args.seed}, up to {args.trials} trial(s) in "
        f"{args.budget_s:g}s, scale {args.scale}, "
        f"workloads {','.join(workloads)}, schemes {','.join(schemes)}"
        + (f", sabotage rate {args.sabotage_rate:g}"
           if args.sabotage_rate else "")
        + (f", crash rate {args.crash_rate:g}" if args.crash_rate else "")
    )
    report = harness.run(progress=print)
    if report.clean:
        print(f"clean: {report.trials_run} trial(s) survived "
              f"({report.wall_s:.1f}s)")
        return 1 if args.expect_failure else 0
    sig = report.signature
    print(
        f"failure at trial {report.trial_index}: {sig.exc_type} "
        f"[{', '.join(sig.kinds) or 'crash'}]; schedule minimized "
        f"{report.original_clause_count} -> {len(report.minimal_clauses)} "
        f"clause(s) in {report.minimize_evaluations} evaluation(s); "
        f"reproducer: {report.artifact_path} "
        f"(replay {'verified' if report.replay_verified else 'FAILED'})"
    )
    if args.expect_failure:
        return 0 if report.replay_verified else 1
    return 2


def _cmd_profile(args) -> int:
    import cProfile
    import json

    from .sim.profile import (
        PROFILE_CASES,
        compare_records,
        load_golden,
        profile_report,
        run_microbench,
        write_golden,
    )

    if args.cases:
        try:
            cases = [
                tuple(pair.split(":", 1))
                for pair in args.cases.split(",")
                if pair.strip()
            ]
        except ValueError:
            print("error: --cases wants workload:scheme pairs",
                  file=sys.stderr)
            return 2
    else:
        cases = list(PROFILE_CASES)
    cfg = SystemConfig.scaled(num_hosts=args.hosts)
    profiler = cProfile.Profile() if args.cprofile else None
    print(f"profile: {len(cases)} case(s), scale {args.scale}, "
          f"{args.hosts} hosts, {args.repeats} repeat(s)")
    result = run_microbench(
        scale=args.scale, cases=cases, config=cfg,
        repeats=args.repeats, profiler=profiler,
    )
    print(f"  {'case':<16} {'accesses':>9}  {'generate':>8}  {'bake':>6}  "
          f"{'engine':>7}  {'engine acc/s':>12}")
    for case in result.cases:
        print(f"  {case.key:<16} {case.accesses:>9}  "
              f"{case.generate_s:>7.3f}s  {case.bake_s:>5.3f}s  "
              f"{case.wall_s:>6.2f}s  {case.accesses_per_s:>12,.0f}")
    print(f"  {'aggregate':<16} {result.total_accesses:>9}  "
          f"{result.total_generate_s:>7.3f}s  "
          f"{result.total_bake_s:>5.3f}s  "
          f"{result.total_wall_s:>6.2f}s  "
          f"{result.aggregate_accesses_per_s:>12,.0f}")

    if args.baseline and os.path.exists(args.baseline):
        with open(args.baseline) as fh:
            bench = json.load(fh)
        base = bench.get("baseline", {})
        base_rate = base.get("aggregate_accesses_per_s")
        if base_rate and base.get("scale") == args.scale:
            speedup = result.aggregate_accesses_per_s / base_rate
            print(f"  vs. recorded baseline ({args.baseline}): "
                  f"{speedup:.2f}x ({base_rate:,.0f} acc/s baseline)")
        elif base_rate:
            print(f"  (baseline in {args.baseline} was recorded at scale "
                  f"{base.get('scale')!r}; rerun with --scale "
                  f"{base.get('scale')} to compare)")

    if profiler is not None:
        print(profile_report(profiler, top=args.top))

    if args.write_golden:
        write_golden(args.write_golden, result)
        print(f"golden records written to {args.write_golden}")
    if args.check_golden:
        problems = compare_records(
            result.records(), load_golden(args.check_golden)
        )
        if problems:
            for problem in problems:
                print(f"GOLDEN DRIFT: {problem}", file=sys.stderr)
            return 1
        print(f"golden check: {len(result.cases)} record(s) match "
              f"{args.check_golden}")
    return 0


def _cmd_check(args) -> int:
    failures = 0
    models = [BaseCxlDsmModel(args.hosts)]
    models += [
        PipmModel(args.hosts, remap_host=h) for h in range(args.hosts)
    ]
    for model in models:
        result = ModelChecker(model).run()
        print(result.summary())
        for violation in result.violations:
            print(f"  !! {violation}")
        failures += len(result.violations)
    return 1 if failures else 0


def _cmd_workloads(_args) -> int:
    rows = [
        (info.name, info.suite, f"{info.paper_footprint_gb}GB",
         info.description)
        for info in WORKLOADS.values()
    ]
    print(format_table("Table 1: evaluated workloads",
                       ["name", "suite", "paper footprint", "description"],
                       rows))
    return 0


def _cmd_config(_args) -> int:
    rows = list(SystemConfig.paper().describe().items())
    print(format_table("Table 2: system configuration (paper values)",
                       ["component", "setting"], rows))
    return 0


def _cmd_lint(args) -> int:
    from .simcheck.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "soak": _cmd_soak,
    "profile": _cmd_profile,
    "check": _cmd_check,
    "lint": _cmd_lint,
    "workloads": _cmd_workloads,
    "config": _cmd_config,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
