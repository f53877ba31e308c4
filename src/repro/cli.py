"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``         one workload on one configuration, with a full report
``compare``     paired with/without-gating comparison (Figs. 4–6 metrics)
``evaluate``    the paper's evaluation grid + Section VIII averages
``sweep``       Fig. 7 W0 sensitivity for one workload
``suite``       declarative scenario suites: ``list``, ``describe``,
                ``run`` (optionally ``--shard K/N``), ``plan``
                (cache-aware hit/miss map, no simulation), ``merge``
                (fold shard result stores into one)
``figures``     declarative paper artifacts: ``list``, ``status``,
                ``build`` — plan each figure's suite against the result
                store, simulate only residual misses, re-render only
                stale ``figures/*.json``
``bench``       hot-path benchmarks with ``BENCH_*.json`` output; with
                ``--compare [BASELINE.json]`` a CI regression gate
                (bare ``--compare`` gates against the newest committed
                ``BENCH_*.json`` session, baseline as fallback)
``cache-power`` the Fig. 3 TCC-cache power analysis
``exec-status`` inspect (or ``--prune``, optionally ``--older-than`` /
                ``--label``) a result-cache directory; ``--json`` for
                the full machine-readable statistics
``obs``         observability runs (docs/observability.md): ``list``,
                ``show``, ``summary``, ``tail`` over the run manifests
                and event logs written under ``--obs-dir``
``list``        available workloads and contention managers

Execution control (``compare``, ``evaluate``, ``sweep``, ``suite run``)
-----------------------------------------------------------------------
``--jobs N``       fan simulation runs across N worker processes
                   (``0`` = one per CPU; default 1 = serial)
``--cache-dir P``  content-addressed result cache: re-running an
                   unchanged figure or sweep performs zero simulations
``--store B``      cache backend: ``jsonl``, ``sqlite``, or ``auto``
                   (detect from the cache directory; default)
``--no-cache``     ignore ``--cache-dir`` for this invocation
``--progress``     per-job status lines + batch speed-up on stderr
``--obs-dir D``    structured tracing: spans/events + a run manifest
                   under D (``REPRO_OBS=1`` enables it by environment)
``--profile``      wrap each executed job in cProfile and merge the
                   hot spots into the run manifest
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import TYPE_CHECKING, Sequence

from .config import DEFAULT_W0_VALUES, GatingConfig, SystemConfig
from .errors import ExecutionError
from .exec.backends import BACKEND_CHOICES
from .exec.progress import ConsoleProgress
from .exec.store import ResultStore
from .harness.reporting import format_matrix, format_table

if TYPE_CHECKING:
    from .exec.executor import BatchExecutionError, Executor
    from .scenarios.runner import Shard

# Each command imports what it runs inside its handler: a read-only
# command (``figures build`` on a warm store, ``suite describe|plan``,
# ``exec-status``, ``list``) never imports numpy or the simulator.

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--procs", type=int, default=4,
                        help="number of processors (default 4)")
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "medium"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--w0", type=int, default=8,
                        help="gating-window constant W0 (default 8)")
    parser.add_argument("--cm", default="gating-aware",
                        help="contention manager (see `list`)")


def _add_exec(parser: argparse.ArgumentParser) -> None:
    """Parallel-execution and result-cache flags (repro.exec)."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = one per CPU; default 1)")
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="content-addressed result cache directory")
    _add_store(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir for this invocation")
    parser.add_argument("--progress", action="store_true",
                        help="per-job status and batch speed-up on stderr")
    _add_obs(parser)


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--obs-dir", metavar="DIR",
                        help="record structured spans/events and a run "
                             "manifest under DIR (REPRO_OBS=1 enables "
                             "this by environment; see docs/observability.md)")
    parser.add_argument("--profile", action="store_true",
                        help="wrap each executed job in cProfile and merge "
                             "the hot spots into the run manifest "
                             "(implies observability)")


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", choices=BACKEND_CHOICES, default="auto",
                        help="result-store backend (auto = detect from the "
                             "cache directory; new directories get jsonl)")


def _shard_arg(text: str) -> Shard:
    from .scenarios.runner import Shard

    try:
        return Shard.parse(text)
    except ExecutionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _config(args: argparse.Namespace, gating_enabled: bool = True) -> SystemConfig:
    return dataclasses.replace(
        SystemConfig(num_procs=args.procs, seed=args.seed),
        gating=GatingConfig(
            enabled=gating_enabled, w0=args.w0, contention_manager=args.cm
        ),
    )


def _executor(args: argparse.Namespace) -> Executor:
    from .exec.executor import Executor

    store = None
    if args.cache_dir and not args.no_cache:
        store = ResultStore(args.cache_dir, backend=args.store)
    progress = ConsoleProgress() if args.progress else None
    return Executor(jobs=args.jobs, store=store, progress=progress,
                    profile=getattr(args, "profile", False))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clock Gate on Abort (IPPS 2009) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one workload, print a report")
    p_run.add_argument("workload")
    _add_common(p_run)
    p_run.add_argument("--no-gating", action="store_true")
    p_run.add_argument("--check-serial", action="store_true",
                       help="verify TID-order serializability (slower)")
    p_run.add_argument("--csv-timelines", metavar="PATH",
                       help="export power-state timelines as CSV")

    p_cmp = sub.add_parser("compare", help="paired gated/ungated comparison")
    p_cmp.add_argument("workload")
    _add_common(p_cmp)
    _add_exec(p_cmp)

    p_eval = sub.add_parser("evaluate", help="regenerate Figs. 4-6 + averages")
    _add_common(p_eval)
    _add_exec(p_eval)
    p_eval.add_argument("--grid", type=int, nargs="+",
                        help="processor counts (default: the paper's "
                             "4 8 16)")

    p_sweep = sub.add_parser("sweep", help="Fig. 7 W0 sensitivity")
    p_sweep.add_argument("workload")
    _add_common(p_sweep)
    _add_exec(p_sweep)
    p_sweep.add_argument("--w0-values", type=int, nargs="+",
                         default=list(DEFAULT_W0_VALUES))

    p_suite = sub.add_parser(
        "suite", help="declarative scenario suites (list/describe/run)"
    )
    suite_sub = p_suite.add_subparsers(dest="action", required=True)
    suite_sub.add_parser("list", help="named suites with sizes")
    p_sdesc = suite_sub.add_parser(
        "describe", help="axes, expansion and per-scenario digests"
    )
    sdesc_src = p_sdesc.add_mutually_exclusive_group(required=True)
    sdesc_src.add_argument("--suite", metavar="NAME")
    sdesc_src.add_argument("--file", metavar="PATH",
                           help="user-defined ScenarioSuite JSON file")
    p_sdesc.add_argument("--scale", choices=("tiny", "small", "medium"),
                         help="override the suite's default scale")
    p_sdesc.add_argument("--seed", type=int, default=None,
                         help="override the suite's seed (default: the "
                              "suite's own; 0 for named suites)")
    p_sdesc.add_argument("--json", action="store_true",
                         help="emit the expanded scenario specs as JSON")
    p_srun = suite_sub.add_parser(
        "run", help="expand a suite and execute it through the exec cache"
    )
    srun_src = p_srun.add_mutually_exclusive_group(required=True)
    srun_src.add_argument("--suite", metavar="NAME")
    srun_src.add_argument("--file", metavar="PATH",
                          help="user-defined ScenarioSuite JSON file "
                               "(see docs/scenarios.md)")
    p_srun.add_argument("--scale", choices=("tiny", "small", "medium"),
                        help="override the suite's default scale")
    p_srun.add_argument("--seed", type=int, default=None,
                        help="override the suite's seed (default: the "
                             "suite's own; 0 for named suites)")
    p_srun.add_argument("--shard", type=_shard_arg, metavar="K/N",
                        help="run only shard K of N: the suite's deduped "
                             "job list is partitioned deterministically "
                             "by job digest (merge stores afterwards "
                             "with `suite merge`)")
    _add_exec(p_srun)

    p_splan = suite_sub.add_parser(
        "plan", help="cache-aware search: hit/miss per unique job digest, "
                     "no simulation"
    )
    splan_src = p_splan.add_mutually_exclusive_group(required=True)
    splan_src.add_argument("--suite", metavar="NAME")
    splan_src.add_argument("--file", metavar="PATH",
                           help="user-defined suite JSON file")
    p_splan.add_argument("--scale", choices=("tiny", "small", "medium"),
                         help="override the suite's default scale")
    p_splan.add_argument("--seed", type=int, default=None,
                         help="override the suite's seed (default: the "
                              "suite's own; 0 for named suites)")
    p_splan.add_argument("--shard", type=_shard_arg, metavar="K/N",
                         help="plan only shard K of N of the job list")
    p_splan.add_argument("--cache-dir", metavar="PATH",
                         help="result store to probe (omitted or missing: "
                              "every job is a miss)")
    _add_store(p_splan)
    p_splan.add_argument("--json", action="store_true",
                         help="emit the plan as JSON")
    p_splan.add_argument("--out", metavar="PATH",
                         help="write the residual misses as a dispatchable "
                              "spec-list suite JSON file")

    p_smerge = suite_sub.add_parser(
        "merge", help="fold shard result stores into one directory"
    )
    p_smerge.add_argument("sources", nargs="+", metavar="DIR",
                          help="source cache directories (backend "
                               "auto-detected per directory)")
    p_smerge.add_argument("--into", required=True, metavar="DIR",
                          help="destination cache directory (created if "
                               "missing)")
    _add_store(p_smerge)

    p_fig = sub.add_parser(
        "figures",
        help="declarative paper artifacts: incremental, store-driven "
             "regeneration (list/status/build)",
    )
    fig_sub = p_fig.add_subparsers(dest="action", required=True)
    fig_sub.add_parser("list", help="registered figures and tables")
    p_fstat = fig_sub.add_parser(
        "status", help="artifact freshness + store coverage, no simulation"
    )
    p_fbuild = fig_sub.add_parser(
        "build", help="plan suites against the store, simulate only the "
                      "residual misses, re-render stale artifacts"
    )
    for sub_parser in (p_fstat, p_fbuild):
        sub_parser.add_argument("--only", action="append", metavar="NAME",
                                help="restrict to one figure (repeatable)")
        sub_parser.add_argument("--out-dir", default="figures", metavar="DIR",
                                help="artifact directory (default figures/)")
        sub_parser.add_argument("--cache-dir", default=".repro-cache",
                                metavar="PATH",
                                help="result store feeding the figures "
                                     "(default .repro-cache)")
        _add_store(sub_parser)
        sub_parser.add_argument("--scale", default=None,
                                choices=("tiny", "small", "medium"))
        sub_parser.add_argument("--seed", type=int, default=None)
        sub_parser.add_argument("--apps", nargs="+", metavar="APP",
                                help="grid applications (default: the "
                                     "paper's three)")
        sub_parser.add_argument("--grid", type=int, nargs="+", metavar="N",
                                help="processor counts (default 4 8 16)")
        sub_parser.add_argument("--w0", type=int, default=None,
                                help="evaluation-grid W0 (default 8)")
        sub_parser.add_argument("--w0-values", type=int, nargs="+",
                                metavar="W0",
                                help="Fig. 7 sweep values (default "
                                     "1 2 4 8 16 32)")
    p_fbuild.add_argument("--force", action="store_true",
                          help="re-extract and rewrite fresh artifacts too")
    p_fbuild.add_argument("--show", action="store_true",
                          help="print each artifact as a paper-style text "
                               "table after building")
    p_fbuild.add_argument("--csv", action="store_true",
                          help="also export <name>.csv per artifact")
    p_fbuild.add_argument("--png", action="store_true",
                          help="also plot <name>.png (needs matplotlib)")
    p_fbuild.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes for residual simulations "
                               "(0 = one per CPU; default 1)")
    p_fbuild.add_argument("--no-cache", action="store_true",
                          help="use a throw-away store: simulate "
                               "everything, persist nothing")
    p_fbuild.add_argument("--progress", action="store_true",
                          help="per-job status and batch speed-up on stderr")
    p_fbuild.add_argument("--shard", type=_shard_arg, metavar="K/N",
                          help="simulate only shard K of N of the residual "
                               "job list (merge stores, then re-build to "
                               "render)")
    _add_obs(p_fbuild)

    p_bench = sub.add_parser(
        "bench", help="micro/meso performance benchmarks (repro.bench)"
    )
    p_bench.add_argument("--bench", action="append", metavar="NAME",
                         help="benchmark to run (repeatable; default: all)")
    p_bench.add_argument("--list", action="store_true", dest="list_benches",
                         help="list available benchmarks and exit")
    p_bench.add_argument("--check", action="store_true",
                         help="CI smoke mode: tiny work sizes, one pass")
    p_bench.add_argument("--repeats", type=int, metavar="N",
                         help="timed repetitions per benchmark")
    p_bench.add_argument("--warmup", type=int, metavar="N",
                         help="untimed warmup passes per benchmark")
    p_bench.add_argument("--label", default="",
                         help="session label recorded in the JSON payload")
    p_bench.add_argument("--out", metavar="PATH",
                         help="write the machine-readable report here "
                              "(e.g. BENCH_local.json)")
    p_bench.add_argument("--baseline", metavar="PATH",
                         help="earlier bench JSON to compare against; the "
                              "report becomes a before/after comparison")
    p_bench.add_argument("--compare", metavar="PATH", nargs="?",
                         const="auto", default=None,
                         help="regression gate: compare against a committed "
                              "baseline bench JSON and exit non-zero when "
                              "any benchmark regresses more than "
                              "--max-regression percent; without PATH, the "
                              "newest committed BENCH_*.json session "
                              "matching the run's --check mode is used "
                              "(BENCH_baseline.json as the fallback)")
    p_bench.add_argument("--max-regression", type=float, default=25.0,
                         metavar="PCT",
                         help="allowed per-benchmark throughput drop for "
                              "--compare (default 25)")

    sub.add_parser("cache-power", help="Fig. 3 TCC-cache power analysis")

    p_status = sub.add_parser(
        "exec-status", help="inspect a repro.exec result cache"
    )
    p_status.add_argument("--cache-dir", required=True, metavar="PATH")
    _add_store(p_status)
    p_status.add_argument("--verbose", action="store_true",
                          help="list every cached run")
    p_status.add_argument("--digests", action="store_true",
                          help="print '<digest> <result sha256>' per entry, "
                               "sorted by digest (for scripting, e.g. "
                               "comparing a merged store against an "
                               "unsharded run)")
    p_status.add_argument("--prune", action="store_true",
                          help="compact tombstoned/corrupt/stale records "
                               "out of the store")
    p_status.add_argument("--older-than", type=float, default=None,
                          metavar="DAYS",
                          help="with --prune: also expire records written "
                               "more than DAYS days ago (age-based GC)")
    p_status.add_argument("--label", default=None, metavar="TEXT",
                          help="with --prune: restrict expiry to records "
                               "whose label contains TEXT")
    p_status.add_argument("--json", action="store_true",
                          help="emit the full store statistics (backend, "
                               "session hits/misses, skipped records, "
                               "per-workload entry counts) as JSON")

    p_obs = sub.add_parser(
        "obs", help="inspect observability runs: manifests + event logs "
                    "(see docs/observability.md)"
    )
    obs_sub = p_obs.add_subparsers(dest="action", required=True)
    p_olist = obs_sub.add_parser("list", help="recorded runs, oldest first")
    p_oshow = obs_sub.add_parser(
        "show", help="one run's manifest (metrics, batches, failures)"
    )
    p_osum = obs_sub.add_parser(
        "summary", help="aggregate metrics across every recorded run"
    )
    p_otail = obs_sub.add_parser(
        "tail", help="the last N records of a run's event log"
    )
    for sub_parser in (p_olist, p_oshow, p_osum, p_otail):
        sub_parser.add_argument("--obs-dir", default=None, metavar="DIR",
                                help="observability directory (default: "
                                     "$REPRO_OBS_DIR or obs/)")
        sub_parser.add_argument("--json", action="store_true",
                                help="emit machine-readable JSON")
    for sub_parser in (p_oshow, p_otail):
        sub_parser.add_argument("run", nargs="?", default=None,
                                help="run id or unique prefix "
                                     "(default: latest)")
    p_oshow.add_argument("--failures", type=int, default=5, metavar="N",
                         help="failure details to print (default 5)")
    p_otail.add_argument("-n", "--lines", type=int, default=20, metavar="N",
                         help="records to show (default 20)")

    p_check = sub.add_parser(
        "check", help="determinism-invariant lint over the source tree "
                      "(see docs/static-analysis.md)"
    )
    p_check.add_argument(
        "paths", nargs="*", default=["src", "tests", "scripts"],
        metavar="PATH", help="files/directories to check "
                             "(default: src tests scripts)")
    p_check.add_argument("--json", action="store_true",
                         help="emit the machine-readable JSON report")
    p_check.add_argument("--select", default=None, metavar="IDS",
                         help="comma-separated rule ids/names to run "
                              "(default: all)")
    p_check.add_argument("--ignore", default=None, metavar="IDS",
                         help="comma-separated rule ids/names to skip")
    p_check.add_argument("--list-rules", action="store_true",
                         help="print the registered rule catalog and exit")

    sub.add_parser("list", help="available workloads and policies")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from .analysis.runreport import run_report
    from .harness.runner import run_workload, workload
    from .sim.trace import TraceRecorder

    trace = TraceRecorder(kinds=("tx", "gate"))
    config = _config(args, gating_enabled=not args.no_gating)
    result = run_workload(
        workload(args.workload, scale=args.scale, seed=args.seed),
        config,
        trace=trace,
        check_serial=args.check_serial,
    )
    print(run_report(result, trace))
    if args.check_serial:
        print("  serializability: OK (TID-order replay verified)")
    if args.csv_timelines:
        from .analysis.timelines import timelines_to_csv

        with open(args.csv_timelines, "w") as fh:
            fh.write(timelines_to_csv(result.machine_result.timelines))
        print(f"  timelines written to {args.csv_timelines}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .harness.compare import compare_gating
    from .harness.runner import workload
    from .power.report import format_energy_report

    comparison = compare_gating(
        workload(args.workload, scale=args.scale, seed=args.seed),
        _config(args),
        executor=_executor(args),
    )
    print(format_energy_report(comparison.energy_report()))
    print()
    print(comparison.summary())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .figures import FigureParams, eval_grid_suite
    from .figures.extract import (
        comparisons_from_results, fig4_rows, fig5_rows, fig6_rows,
        headline_from_comparisons,
    )
    from .scenarios.runner import run_specs
    from .workloads.registry import PAPER_PROCS

    params = FigureParams(
        scale=args.scale, seed=args.seed, w0=args.w0, cm=args.cm,
        procs=tuple(args.grid or PAPER_PROCS),
    )
    comparisons = comparisons_from_results(
        run_specs(eval_grid_suite(params).expand(), executor=_executor(args))
    )
    apps, procs = params.apps, params.procs
    print(format_table(["app", "procs", "N1", "N2", "speed-up"],
                       fig4_rows(comparisons, apps, procs),
                       title="Fig. 4 — execution time"))
    print()
    print(format_table(
        ["app", "procs", "Eug", "Eg", "energy reduction"],
        [(a, p, round(eu, 1), round(eg, 1), r)
         for a, p, eu, eg, r in fig5_rows(comparisons, apps, procs)],
        title="Fig. 5 — energy",
    ))
    print()
    print(format_table(["app", "procs", "avgP ug", "avgP g", "power red."],
                       fig6_rows(comparisons, apps, procs),
                       title="Fig. 6 — average power"))
    headline = headline_from_comparisons(comparisons, apps, procs)
    print()
    print(f"averages over {int(headline['points'])} points: "
          f"speed-up {headline['average_speedup_pct']:+.1f}%, "
          f"energy reduction {headline['average_energy_reduction_pct']:.1f}%, "
          f"power reduction {headline['average_power_reduction_pct']:.1f}%")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .harness.runner import workload
    from .harness.sweep import w0_sensitivity

    curves = w0_sensitivity(
        workload(args.workload, scale=args.scale, seed=args.seed),
        _config(args),
        w0_values=tuple(args.w0_values),
        executor=_executor(args),
    )
    rows = [
        (w0, point["speedup"], point["energy_reduction"],
         point["power_reduction"])
        for w0, point in curves.items()
    ]
    print(format_table(
        ["W0", "speed-up", "energy red.", "power red."],
        rows,
        title=f"Fig. 7 — {args.workload} @ {args.procs} procs",
    ))
    return 0


def _resolve_suite(args: argparse.Namespace):
    """A suite either by registered name or from a user JSON file.

    For file-based suites, ``--scale`` and ``--seed`` (when given —
    ``--seed 0`` counts) rewrite the base spec; axes that sweep those
    fields still win at expansion.
    """
    from .scenarios.builtin import get_suite
    from .scenarios.suite import load_suite_file

    if getattr(args, "file", None):
        loaded = load_suite_file(args.file)
        updates = {}
        if args.scale:
            updates["scale"] = args.scale
        if args.seed is not None:
            updates["seed"] = args.seed
        if updates:
            loaded = loaded.with_base_updates(**updates)
        return loaded
    return get_suite(
        args.suite, scale=args.scale,
        seed=args.seed if args.seed is not None else 0,
    )


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.action == "list":
        from .scenarios.builtin import suite_help

        print(format_table(
            ["suite", "scenarios", "description"],
            suite_help(),
            title="Named scenario suites",
        ))
        return 0
    if args.action == "merge":
        return _suite_merge(args)

    named = _resolve_suite(args)
    if args.action == "describe":
        specs = named.expand()
        if args.json:
            import json as _json

            print(_json.dumps([spec.to_dict() for spec in specs], indent=2))
            return 0
        print(named.describe())
        unique_jobs = len({spec.to_job().digest for spec in specs})
        print(f"  unique jobs after dedup: {unique_jobs}")
        for spec in specs:
            print(f"  {spec.digest[:12]}  {spec.label()}")
        return 0
    if args.action == "plan":
        return _suite_plan(args, named)

    # action == "run"
    from .scenarios.runner import SuiteRun, run_suite

    outcome = run_suite(named, executor=_executor(args), shard=args.shard)
    shard_note = f" [shard {args.shard}]" if args.shard is not None else ""
    print(format_table(
        list(SuiteRun.ROW_HEADERS),
        outcome.rows(),
        title=f"suite {named.name}{shard_note} — {len(outcome)} scenario(s)",
    ))
    paired = outcome.paired_rows()
    if paired:
        print()
        print(format_table(
            list(SuiteRun.PAIRED_HEADERS),
            paired,
            title="gated vs ungated pairs",
        ))
    if outcome.report is not None:
        # stderr, like the progress layer: stdout stays bit-identical
        # between a cold run and a pure-cache-hit re-run.
        print(outcome.report.summary(), file=sys.stderr)
    return 0


def _suite_plan(args: argparse.Namespace, named) -> int:
    """``suite plan``: probe the store per job digest, never simulate."""
    import os

    from .scenarios.runner import plan_suite

    store = None
    if args.cache_dir:
        if os.path.isdir(args.cache_dir):
            store = ResultStore(args.cache_dir, backend=args.store)
        else:
            print(f"no result store at {args.cache_dir}; planning against "
                  f"an empty cache", file=sys.stderr)
    plan = plan_suite(named, store=store, shard=args.shard)
    if args.json:
        import json as _json

        print(_json.dumps(plan.to_dict(), indent=2))
    else:
        for entry in plan.entries:
            state = "HIT " if entry.cached else "MISS"
            multi = f"  (x{entry.scenarios})" if entry.scenarios > 1 else ""
            print(f"  {state} {entry.digest[:12]}  {entry.label}{multi}")
        print(plan.summary())
    if args.out:
        residual = plan.residual_suite()
        from pathlib import Path as _Path

        _Path(args.out).write_text(residual.to_json(indent=2) + "\n",
                                   encoding="utf-8")
        print(f"residual suite ({residual.size} spec(s)) written to "
              f"{args.out}", file=sys.stderr)
    return 0


def _suite_merge(args: argparse.Namespace) -> int:
    """``suite merge``: fold shard result stores into one directory."""
    import os

    for src in args.sources:
        if not os.path.isdir(src):
            print(f"no result store at {src}", file=sys.stderr)
            return 1
    dest = ResultStore(args.into, backend=args.store)
    for src in args.sources:
        source = ResultStore(src)
        written = dest.merge_from(source)
        print(f"  {src}: {len(source)} entr{'y' if len(source) == 1 else 'ies'}, "
              f"{written} new/updated")
        source.close()
    print(dest.stats().summary())
    dest.close()
    return 0


def _figure_params(args: argparse.Namespace):
    """FigureParams from the optional CLI overrides (defaults: the paper)."""
    from .figures import FigureParams

    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.apps:
        overrides["apps"] = tuple(args.apps)
    if args.grid:
        overrides["procs"] = tuple(args.grid)
    if args.w0 is not None:
        overrides["w0"] = args.w0
    if args.w0_values:
        overrides["w0_values"] = tuple(args.w0_values)
    return FigureParams(**overrides)


def _figure_builder(args: argparse.Namespace, jobs: int = 1,
                    progress: bool = False):
    """A FigureBuilder wired to the CLI's store/out-dir/grid flags."""
    import os

    from .figures import FigureBuilder

    store = None  # a throw-away temporary store
    if not getattr(args, "no_cache", False):
        if args.action == "status" and not os.path.isdir(args.cache_dir):
            # status is read-only: never create the directory; an empty
            # throw-away store reports every job as a miss.
            print(f"no result store at {args.cache_dir}; reporting "
                  f"against an empty cache", file=sys.stderr)
        else:
            store = ResultStore(args.cache_dir, backend=args.store)
    return FigureBuilder(
        store=store,
        out_dir=args.out_dir,
        params=_figure_params(args),
        jobs=jobs,
        progress=ConsoleProgress() if progress else None,
        profile=getattr(args, "profile", False),
    )


def _cmd_figures(args: argparse.Namespace) -> int:
    from .figures import figure_help

    if args.action == "list":
        print(format_table(
            ["figure", "kind", "suite", "title"],
            figure_help(),
            title="Registered paper artifacts",
        ))
        return 0

    if args.action == "status":
        from .figures import FigureStatus

        builder = _figure_builder(args)
        # one resolve+plan pass; the residual count is unique across
        # figures (shared suites/jobs count once), matching what a
        # build would actually simulate
        statuses, misses, _total = builder.overview(names=args.only)
        print(format_table(
            list(FigureStatus.ROW_HEADERS),
            [status.row() for status in statuses],
            title=f"figures status — artifacts in {args.out_dir}/",
        ))
        stale = sum(
            1 for status in statuses if status.artifact != "fresh"
        )
        print(f"{stale} artifact(s) need building; "
              f"{misses} residual simulation(s) across requested figures")
        return 0

    # action == "build"
    builder = _figure_builder(args, jobs=args.jobs, progress=args.progress)
    report = builder.build(
        names=args.only, force=args.force, shard=args.shard,
        csv=args.csv, png=args.png,
    )
    for artifact in report.artifacts:
        where = f"  -> {artifact.path}" if artifact.path is not None else ""
        print(f"  {artifact.name}: {artifact.status}{where}")
    print(report.summary())
    if args.show:
        from .analysis.figreport import format_figure, load_figure

        for artifact in report.artifacts:
            if artifact.path is not None and artifact.path.exists():
                print()
                print(format_figure(load_figure(artifact.path)))
    if report.batch is not None:
        print(report.batch.summary(), file=sys.stderr)
    incomplete = [a.name for a in report.artifacts if a.status == "incomplete"]
    if incomplete:
        print(f"incomplete (store lacks runs; merge shards and re-build): "
              f"{', '.join(incomplete)}", file=sys.stderr)
        return 1 if args.shard is None else 0
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        available_benchmarks,
        bench_payload,
        compare_payloads,
        load_bench_json,
        run_benchmarks,
        write_bench_json,
    )
    from .bench.report import format_results

    if args.list_benches:
        for name in available_benchmarks():
            print(name)
        return 0

    results = run_benchmarks(
        names=args.bench,
        check=args.check,
        repeats=args.repeats,
        warmup=args.warmup,
        progress=lambda name: print(f"running {name} ...", file=sys.stderr),
    )
    print(format_results(results))

    payload = bench_payload(results, label=args.label)
    gate_failures: list[str] = []
    compare_path = args.compare
    if compare_path == "auto":
        from .bench import find_baseline

        found = find_baseline(".", check=args.check)
        if found is None:
            print("bench gate: no committed BENCH_*.json session matches "
                  f"--check={args.check}; nothing to compare against",
                  file=sys.stderr)
            return 1
        compare_path = str(found)
        print(f"bench gate baseline: {compare_path} (newest committed "
              f"session)", file=sys.stderr)
    if compare_path:
        from .bench import regression_failures

        baseline = load_bench_json(compare_path)
        comparison = compare_payloads(baseline, payload)
        print(f"gate comparison vs {compare_path}:")
        for name, factor in sorted(comparison["speedup"].items()):
            print(f"  {name}: {factor:.2f}x vs baseline")
        gate_failures = regression_failures(
            baseline, payload, max_regression_pct=args.max_regression
        )
    if args.baseline:
        payload = compare_payloads(load_bench_json(args.baseline), payload)
        print(f"before/after comparison vs {args.baseline}:")
        for name, factor in sorted(payload["speedup"].items()):
            print(f"  {name}: {factor:.2f}x vs baseline")
    if args.out:
        path = write_bench_json(args.out, payload)
        print(f"report written to {path}", file=sys.stderr)
    if gate_failures:
        for failure in gate_failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        print(f"bench gate FAILED: {len(gate_failures)} benchmark(s) "
              f"regressed more than {args.max_regression:g}% vs "
              f"{compare_path}", file=sys.stderr)
        return 1
    if compare_path:
        print(f"bench gate OK: no benchmark regressed more than "
              f"{args.max_regression:g}% vs {compare_path}")
    return 0


def _cmd_cache_power(_args: argparse.Namespace) -> int:
    from .power.cacti import (
        FIG3_CACHE_SIZES_KB, FIG3_GRANULARITIES, tcc_cache_power_curve,
        tcc_total_power_factor,
    )

    values = {
        f"{size}KB": dict(tcc_cache_power_curve(size))
        for size in FIG3_CACHE_SIZES_KB
    }
    print(format_matrix(
        [f"{s}KB" for s in FIG3_CACHE_SIZES_KB],
        FIG3_GRANULARITIES,
        values,
        corner="cache \\ B/RW-bit",
        title="Fig. 3 — normalized TCC data-cache power",
    ))
    print(f"full TCC data-cache factor: {tcc_total_power_factor():.3f}x")
    return 0


def _cmd_exec_status(args: argparse.Namespace) -> int:
    import os

    if not os.path.isdir(args.cache_dir):
        # Read-only command: never create the directory (a typo'd path
        # would otherwise masquerade as an empty store).
        print(f"no result store at {args.cache_dir}", file=sys.stderr)
        return 1
    if (args.older_than is not None or args.label is not None) \
            and not args.prune:
        print("--older-than/--label are GC policies for --prune; "
              "add --prune to apply them", file=sys.stderr)
        return 2
    store = ResultStore(args.cache_dir, backend=args.store)
    if args.digests:
        import hashlib

        from .exec.serialize import canonical_json

        # The result hash makes two listings equal only when the stores
        # hold the same results, not merely the same job keys.
        for record in sorted(store.records(), key=lambda r: r["digest"]):
            result = canonical_json(record["result"]).encode()
            print(record["digest"], hashlib.sha256(result).hexdigest())
        return 0
    prune_report = None
    if args.prune:
        seconds = (
            args.older_than * 86400.0 if args.older_than is not None else None
        )
        prune_report = store.prune(older_than_seconds=seconds,
                                   label=args.label)
        if not args.json:
            print(prune_report.summary())
    stats = store.stats()
    by_workload: dict[str, int] = {}
    for _digest, label in store.labels():
        name = label.split("[", 1)[0] if label else "(unlabelled)"
        by_workload[name] = by_workload.get(name, 0) + 1
    if args.json:
        import json as _json

        # the FULL StoreStats — backend, schema, session hits/misses and
        # the skipped-record count included — so scripts never parse the
        # human summary text
        payload = dataclasses.asdict(stats)
        payload["by_workload"] = by_workload
        if prune_report is not None:
            payload["prune"] = dataclasses.asdict(prune_report)
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(stats.summary())
    for name in sorted(by_workload):
        print(f"  {name}: {by_workload[name]} cached run(s)")
    if args.verbose:
        for digest, label in sorted(store.labels(), key=lambda e: e[1]):
            print(f"  {digest[:12]}  {label}")
    return 0


def _obs_directory(args: argparse.Namespace) -> str:
    from .obs import obs_dir_from_env

    return args.obs_dir if args.obs_dir else obs_dir_from_env()


def _cmd_obs(args: argparse.Namespace) -> int:
    import json as _json

    from .obs.summary import (list_runs, load_manifest, resolve_run,
                              summarize_runs, tail_events)

    directory = _obs_directory(args)

    if args.action == "list":
        runs = list_runs(directory)
        if args.json:
            print(_json.dumps({"directory": directory, "runs": runs},
                              indent=2))
            return 0
        if not runs:
            print(f"no observability runs in {directory}", file=sys.stderr)
            return 1
        for run in runs:
            try:
                manifest = load_manifest(directory, run)
            except Exception:
                print(f"  {run}  (no manifest)")
                continue
            metrics = manifest["metrics"]
            state = "finished" if manifest.get("finished") else "partial"
            print(f"  {run}  {state}: {metrics['jobs_executed']} executed, "
                  f"{metrics['cache_hits']} cache hit(s), "
                  f"{metrics['failures']} failure(s), "
                  f"{metrics['wall_seconds']:.2f}s wall")
        return 0

    if args.action == "summary":
        summary = summarize_runs(directory)
        if args.json:
            print(_json.dumps(summary, indent=2, sort_keys=True))
            return 0
        totals = summary["totals"]
        if not totals["runs"]:
            print(f"no observability runs in {directory}", file=sys.stderr)
            return 1
        print(f"{totals['runs']} run(s) in {directory}: "
              f"{totals['jobs_executed']} executed, "
              f"{totals['cache_hits']} cache hit(s), "
              f"{totals['failures']} failure(s)")
        if totals["hit_rate"] is not None:
            print(f"  cache hit rate: {totals['hit_rate'] * 100:.1f}%")
        if totals["sims_per_second"] is not None:
            print(f"  throughput: {totals['sims_per_second']:.1f} sims/s "
                  f"over {totals['wall_seconds']:.2f}s wall")
        for workload, count in sorted(
                totals["failures_by_workload"].items()):
            print(f"  failures in {workload}: {count}")
        return 0

    run = resolve_run(directory, args.run)
    if args.action == "tail":
        records = tail_events(directory, run, limit=args.lines)
        if args.json:
            print(_json.dumps(records, indent=2, sort_keys=True))
            return 0
        for record in records:
            dur = (f" {record['dur_s'] * 1000:.1f}ms"
                   if record.get("dur_s") is not None else "")
            attrs = record.get("attrs") or {}
            label = attrs.get("label") or attrs.get("figure") \
                or attrs.get("suite") or ""
            print(f"  {record.get('kind', '?'):7s} "
                  f"{record.get('name', '?'):18s}{dur}  {label}")
        return 0

    # action == "show"
    manifest = load_manifest(directory, run)
    if args.json:
        print(_json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    metrics = manifest["metrics"]
    print(f"run {manifest['run']} "
          f"({'finished' if manifest.get('finished') else 'partial'})")
    print(f"  argv: {' '.join(manifest.get('argv', []))}")
    print(f"  git:  {manifest.get('git_sha') or '(unknown)'}")
    print(f"  jobs: {metrics['jobs_executed']} executed, "
          f"{metrics['cache_hits']} cache hit(s) of "
          f"{metrics['jobs_submitted']} submitted in "
          f"{metrics['batches']} batch(es)")
    if metrics["hit_rate"] is not None:
        print(f"  cache hit rate: {metrics['hit_rate'] * 100:.1f}%")
    if metrics["sims_per_second"] is not None:
        print(f"  throughput: {metrics['sims_per_second']:.1f} sims/s "
              f"over {metrics['wall_seconds']:.2f}s wall")
    latency = metrics["job_latency_s"]
    if latency["count"]:
        print(f"  job latency: p50 {latency['p50']:.3f}s, "
              f"p95 {latency['p95']:.3f}s, max {latency['max']:.3f}s "
              f"({latency['count']} job(s))")
    counters = manifest.get("counters", {})
    if counters:
        print("  counters:")
        for name in sorted(counters):
            value = counters[name]
            rendered = f"{value:.4f}" if isinstance(value, float) \
                and not value.is_integer() else f"{int(value)}"
            print(f"    {name}: {rendered}")
    failures = manifest.get("failures", {})
    detail = failures.get("detail", [])
    if detail:
        shown = detail[:max(args.failures, 0)]
        print(f"  failures ({len(shown)} of "
              f"{metrics['failures']} shown):")
        for failure in shown:
            print(f"    {failure['digest'][:12]}  {failure['label']}: "
                  f"{failure['error']}")
    if "profile" in manifest:
        top = manifest["profile"]["top"][:10]
        print(f"  profile ({manifest['profile']['jobs']} job(s), "
              f"top {len(top)} by cumulative time):")
        for row in top:
            print(f"    {row['cumtime_s']:8.3f}s  {row['ncalls']:>8d}  "
                  f"{row['func']}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis.lint import (
        list_rules_text, render_json, render_text, run_check,
    )

    if args.list_rules:
        print(list_rules_text())
        return 0
    split = (lambda raw: [token.strip() for token in raw.split(",")
                          if token.strip()])
    report = run_check(
        args.paths,
        select=split(args.select) if args.select else None,
        ignore=split(args.ignore) if args.ignore else None,
    )
    print(render_json(report) if args.json else render_text(report))
    return report.exit_code


def _cmd_list(_args: argparse.Namespace) -> int:
    from .cm.registry import available_cms
    from .scenarios.builtin import available_suites
    from .workloads.registry import available_workloads, workload_schema

    print("workloads:")
    for name in available_workloads():
        params = ", ".join(workload_schema(name).names()) or "(none)"
        print(f"  {name}  [{params}]")
    print("contention managers:")
    for name in available_cms():
        print(f"  {name}")
    print("scenario suites (see `suite list`):")
    for name in available_suites():
        print(f"  {name}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "suite": _cmd_suite,
    "figures": _cmd_figures,
    "bench": _cmd_bench,
    "cache-power": _cmd_cache_power,
    "exec-status": _cmd_exec_status,
    "obs": _cmd_obs,
    "check": _cmd_check,
    "list": _cmd_list,
}

#: how many job failures the CLI details before truncating
FAILURES_SHOWN = 5


def _obs_setup(args: argparse.Namespace, argv: Sequence[str] | None):
    """Activate observability for this invocation when asked to.

    Returns ``(recorder, mode)`` where mode is ``"flag"`` (activated by
    ``--obs-dir``/``--profile`` — environment exports are cleaned up
    afterwards), ``"env"`` (``REPRO_OBS=1`` — the environment is left
    alone so sibling invocations keep recording), or ``None`` (off).
    The ``obs`` command itself never records a run about reading runs.
    """
    import os as _os

    from . import obs

    if args.command == "obs":
        return obs.get_recorder(), None
    recorded_argv = ["repro", *argv] if argv is not None else None
    if getattr(args, "obs_dir", None):
        return obs.configure(args.obs_dir, argv=recorded_argv), "flag"
    if obs.obs_enabled_from_env():
        run_id = _os.environ.get("REPRO_OBS_RUN", "").strip() or None
        return obs.configure(
            obs.obs_dir_from_env(), run_id=run_id, argv=recorded_argv
        ), "env"
    if getattr(args, "profile", False):
        # --profile without a destination: default observability dir
        return obs.configure(
            obs.obs_dir_from_env(), argv=recorded_argv
        ), "flag"
    return obs.get_recorder(), None


def _print_failures(exc: BatchExecutionError) -> None:
    """Per-failure digests and errors instead of a bare tally."""
    print(f"error: {exc}", file=sys.stderr)
    for failure in exc.failures[:FAILURES_SHOWN]:
        print(f"  FAILED {failure.digest[:12]}  {failure.label}: "
              f"{failure.error}", file=sys.stderr)
    hidden = len(exc.failures) - FAILURES_SHOWN
    if hidden > 0:
        print(f"  ... and {hidden} more failure(s)", file=sys.stderr)
    print("first failure traceback:", file=sys.stderr)
    print(exc.failures[0].traceback.rstrip(), file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    recorder, obs_mode = _obs_setup(args, argv)
    try:
        return _COMMANDS[args.command](args)
    except ExecutionError as exc:
        # only a command that ran a batch can raise this, so the
        # executor module is already loaded
        from .exec.executor import BatchExecutionError

        if not isinstance(exc, BatchExecutionError):
            raise
        _print_failures(exc)
        return 1
    finally:
        if obs_mode is not None:
            from . import obs

            recorder.close()
            if recorder.enabled and recorder.manifest_path.exists():
                print(f"obs: run manifest {recorder.manifest_path}",
                      file=sys.stderr)
            if obs_mode == "flag":
                obs.disable()
            obs.reset()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
