#!/usr/bin/env python3
"""perfbench: the repository benchmark, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload eval-small --seed 1 --seconds 20 --trace 0

Each run sets its workload up ``SETUP_REPEATS`` times (``setup_s`` is
the median), then spawns the workload's user command through the real
CLI back to back for ``--seconds`` seconds (at least ``MIN_SAMPLES``
spawns) and checks every output.  Set-up and spawn seconds are scaled
to nominal host speed by a reference timed between them
(``hostspeed.py``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` also replays the workload in-process with a span
around every layer call (``replay.py``) and prints the per-layer ones.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import hostspeed
from checks import (
    Tally, artifact_set, exact_counts, fingerprint, golden_matches,
    parse_batch_summary, store_records,
)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
DATA = ROOT / "tests" / "data"

SETUP_REPEATS = 3
MIN_SAMPLES = 3
#: one spawn may not take longer than this (the whole run has 180 s)
SPAWN_TIMEOUT_S = 150.0

#: seeds-pool: seed families at tiny scale, 8 cores, gated.  counter's
#: build is seed-invariant (shared prep), bank's is not.
POOL_FAMILIES = ("genome", "intruder", "counter", "bank")
POOL_SEEDS = 32

#: the figure grid the committed tests/data/figstore was built at
GOLDEN_FLAGS = ["--scale", "tiny", "--seed", "0", "--grid", "2", "4",
                "--w0", "8", "--w0-values", "2", "8"]

NOTE = ("each simulation starts with empty caches (no warm-up); the model "
        "is unvalidated against hardware, so no error figure is given")


@dataclass
class Spawn:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """The environment every spawned command runs under.

    ``PYTHONHASHSEED`` is fixed and every ``REPRO_*`` switch of the
    caller is dropped, so no outside setting picks a different code path.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        REPRO_BENCH_DIR=str(DATA / "bench_series"),
    )
    return env


def spawn(argv: list[str], workdir: Path, stamp: bool = False) -> Spawn:
    """Run one command; spawn-to-exit seconds and the peak RSS of its tree.

    ``os.wait4`` reports the largest resident set of the process and of
    every descendant it waited for (pool workers included).
    """
    out_path, err_path = workdir / "spawn.out", workdir / "spawn.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        if stamp:
            argv = argv + ["--spawned-at", repr(started)]
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timer = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawn(
        code=proc.returncode, wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def repro(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def host_conditions() -> dict[str, Any]:
    import numpy

    from repro.vcs import git_sha

    try:
        governor: str | None = Path(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
        ).read_text().strip()
    except OSError:
        governor = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "governor": governor,
        "pythonhashseed": child_env()["PYTHONHASHSEED"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }


class SuiteWorkload:
    """A suite run through ``repro suite run --file`` into a fresh store.

    Set-up materializes the suite once per repeat with ``repro suite
    describe --json``; the timed command only receives that file.
    """

    jobs = 1
    packs = False

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.suite_file = workdir / "suite.json"
        self.describes: list[str] = []
        self.stores: list[Path] = []

    def describe_args(self) -> list[str]:
        raise NotImplementedError

    def setup(self, repeat: int, tally: Tally) -> None:
        done = spawn(repro("suite", "describe", *self.describe_args(),
                           "--json"), self.workdir)
        tally.check(done.code == 0, f"setup {repeat}: suite describe exit "
                                    f"{done.code}")
        self.describes.append(done.stdout)
        self.suite_file.write_text(json.dumps(
            {"name": self.name, "specs": json.loads(done.stdout or "[]")}
        ), encoding="utf-8")

    def finish_setup(self, tally: Tally) -> None:
        from repro.scenarios.suite import load_suite_file

        tally.check(len(set(self.describes)) == 1,
                    "set-up repeats expanded different suites")
        specs = load_suite_file(self.suite_file).expand()
        self.expected = len({spec.to_job().digest for spec in specs})

    def command(self, sample: int) -> list[str]:
        store = self.workdir / f"store-{sample}"
        self.stores.append(store)
        return repro("suite", "run", "--file", str(self.suite_file),
                     "--jobs", str(self.jobs), "--cache-dir", str(store))

    def check(self, sample: int, done: Spawn, tally: Tally) -> None:
        records = store_records(self.stores[sample])
        tally.jobs(self.expected, len(records), done.code, f"sample {sample}")
        if sample == 0:
            self.reference_records = records
            self.fingerprint = fingerprint(records)
        else:
            tally.check(fingerprint(records) == self.fingerprint,
                        f"sample {sample}: store fingerprint differs")

    def replay_args(self) -> list[str]:
        return ["--suite", str(self.suite_file),
                "--reference", str(self.stores[0])] + (
                    ["--packs"] if self.packs else [])

    def check_replay(self, tally: Tally) -> None:
        replayed = store_records(self.workdir / "replay-store")
        tally.check(fingerprint(replayed) == self.fingerprint,
                    "traced replay: store fingerprint differs")


class EvalSmall(SuiteWorkload):
    name = "eval-small"

    def describe_args(self) -> list[str]:
        return ["--suite", "paper-eval", "--scale", "small",
                "--seed", str(self.seed)]


class SeedsPool(SuiteWorkload):
    name = "seeds-pool"
    jobs = 2
    packs = True

    def describe_args(self) -> list[str]:
        grid = self.workdir / "grid.json"
        first = self.seed * POOL_SEEDS + 1
        grid.write_text(json.dumps({
            "name": self.name,
            "base": {"workload": POOL_FAMILIES[0], "scale": "tiny",
                     "threads": 8, "seed": first, "gating": True},
            "axes": [["workload", list(POOL_FAMILIES)],
                     ["seed", list(range(first, first + POOL_SEEDS))]],
        }), encoding="utf-8")
        return ["--file", str(grid)]


class FiguresWarm:
    """``repro figures build --force`` against a store set-up filled."""

    name = "figures-warm"

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.grid = ["--scale", "tiny", "--seed", str(seed)]
        self.warm = workdir / "warm"

    def setup(self, repeat: int, tally: Tally) -> None:
        base = self.workdir / f"setup-{repeat}"
        done = spawn(repro("figures", "build", *self.grid, "--jobs", "2",
                           "--cache-dir", str(base / "store"),
                           "--out-dir", str(base / "figures")), self.workdir)
        tally.check(done.code == 0, f"setup {repeat}: figures build exit "
                                    f"{done.code}")

    def finish_setup(self, tally: Tally) -> None:
        sets = [self.workdir / f"setup-{i}" for i in range(SETUP_REPEATS)]
        self.store = sets[0] / "store"
        self.reference_records = store_records(self.store)
        self.fingerprint = fingerprint(self.reference_records)
        self.artifacts = artifact_set(sets[0] / "figures")
        tally.check(bool(self.reference_records) and bool(self.artifacts),
                    "set-up wrote no results or no artifacts")
        for other in sets[1:]:
            tally.check(
                fingerprint(store_records(other / "store")) == self.fingerprint
                and artifact_set(other / "figures") == self.artifacts,
                f"set-up {other.name} differs from set-up 0",
            )
        shutil.copytree(sets[0] / "figures", self.warm)

    def command(self, sample: int) -> list[str]:
        return repro("figures", "build", "--force", *self.grid,
                     "--cache-dir", str(self.store),
                     "--out-dir", str(self.warm))

    def check(self, sample: int, done: Spawn, tally: Tally) -> None:
        rebuilt = done.stdout.count(": rebuilt")
        tally.jobs(len(self.artifacts), rebuilt, done.code, f"sample {sample}")
        tally.check("simulated 0 residual job(s)" in done.stdout,
                    f"sample {sample}: residual simulations ran")
        tally.check(artifact_set(self.warm) == self.artifacts,
                    f"sample {sample}: artifacts differ from set-up's")
        tally.check(fingerprint(store_records(self.store)) == self.fingerprint,
                    f"sample {sample}: the read-only store changed")

    def replay_args(self) -> list[str]:
        return ["--reference", str(self.store),
                "--artifacts", str(self.warm), *self.grid]

    def check_replay(self, tally: Tally) -> None:
        """The replay compares its artifacts itself (``replay.mismatches``)."""


WORKLOADS = {cls.name: cls for cls in (EvalSmall, SeedsPool, FiguresWarm)}


def check_golden(workdir: Path, tally: Tally) -> None:
    """Rebuild the committed figure store's artifacts; compare to goldens."""
    store = workdir / "golden-store"
    shutil.copytree(DATA / "figstore", store)
    done = spawn(repro("figures", "build", *GOLDEN_FLAGS,
                       "--cache-dir", str(store),
                       "--out-dir", str(workdir / "golden-out")), workdir)
    tally.check(done.code == 0 and "simulated 0 residual job(s)" in done.stdout
                and golden_matches(workdir / "golden-out",
                                   DATA / "figures_golden"),
                "golden figure rebuild differs from tests/data/figures_golden")


#: per-layer metric -> the replay span whose self time it reports
SELF_TIMES = {
    "cli.startup_s": "cli.startup", "cli.import_s": "cli.import",
    "scenarios.expand_s": "scenarios.expand",
    "scenarios.digest_s": "scenarios.digest",
    "exec.condense_s": "exec.condense", "store.load_s": "store.load",
    "store.put_s": "store.put", "store.get_s": "store.get",
    "workloads.prep_s": "workloads.prep", "htm.build_s": "htm.build",
    "htm.reset_s": "htm.reset", "sim.simulate_s": "sim.simulate",
    "harness.validate_s": "harness.validate", "power.energy_s": "power.energy",
    "figures.plan_s": "figures.plan", "figures.render_s": "figures.render",
    "trace.verify_s": "bench.verify",
}


def layer_metrics(trace: dict[str, Any], traced_wall: float,
                  raw_wall_s: float, batches: list[dict[str, float]],
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the replay's spans and the untimed batches.

    ``exec.batch_s``/``overhead_s``/``pool_speedup`` come from the CLI's
    own batch summary line (median over the untimed spawns), because the
    pool's workers run outside the replay.
    """
    self_s = trace["self_seconds"]
    counts = trace["counts"]
    events = counts.get("sim.events", 0)
    probes = counts.get("store.probes", 0)
    jobs = counts.get("scenarios.jobs", 0)
    wall, run_s, workers = (
        statistics.median(b[key] for b in batches)
        for key in ("wall", "run", "workers")
    ) if batches else (0.0, 0.0, 1.0)
    metrics = {
        name: (self_s.get(span, 0.0), "s") for name, span in SELF_TIMES.items()
    }
    metrics.update({
        "scenarios.jobs": (jobs, "count"),
        "scenarios.dedup_ratio": (
            counts.get("scenarios.scenarios", 0) / jobs if jobs else 0.0,
            "ratio"),
        "exec.batch_s": (wall, "s"),
        "exec.overhead_s": (wall - run_s / workers, "s"),
        "exec.pool_speedup": (run_s / wall if wall else 0.0, "x"),
        "exec.pack_reset_reuses": (
            counts.get("exec.pack_reset_reuses", 0), "count"),
        "exec.shared_prep_hits": (
            counts.get("exec.shared_prep_hits", 0), "count"),
        "store.hit_rate": (
            counts.get("store.hits", 0) / probes if probes else 0.0, "ratio"),
        "sim.events": (events, "count"),
        "sim.host_us_per_event": (
            self_s.get("sim.simulate", 0.0) / events * 1e6 if events else 0.0,
            "us"),
        "trace.wall_s": (traced_wall, "s"),
        # both raw: the replay's self times are not scaled to host speed
        "trace.overhead_s": (traced_wall - raw_wall_s, "s"),
        # the replay's own loop plus interpreter teardown
        "trace.unattributed_s": (
            traced_wall - sum(self_s.values()) + self_s.get("replay", 0.0),
            "s"),
    })
    return metrics


EXACT_UNITS = {
    "sim.parallel_cycles": "cycles", "tx.attempts": "count",
    "tx.commits": "count", "tx.commit_ratio": "ratio",
    "tx.wasted_cycles": "cycles", "gating.gated": "count",
    "bus.messages": "count", "memory.accesses": "count",
    "cache.hit_ratio": "ratio", "dir.lines_committed": "count",
    "power.energy_total": "run-cycles", "power.gated_saving": "ratio",
}


def run(args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host: " + json.dumps(host_conditions()))
    print("note: " + NOTE)
    tally = Tally()
    workload = WORKLOADS[args.workload](workdir, args.seed)

    # host-speed reference times: one before the first step, one after each
    setup_refs = [hostspeed.measure()]
    raw_setups = []
    for repeat in range(SETUP_REPEATS):
        started = time.monotonic()
        workload.setup(repeat, tally)
        raw_setups.append(time.monotonic() - started)
        setup_refs.append(hostspeed.measure(raw_setups[-1]))
    workload.finish_setup(tally)

    samples: list[Spawn] = []
    refs = [hostspeed.measure()]
    started = time.monotonic()
    # stop before a spawn (and its reference) would overrun --seconds,
    # given the last one
    while len(samples) < MIN_SAMPLES or (
        time.monotonic() - started + samples[-1].wall
        + hostspeed.duration(samples[-1].wall) < args.seconds
    ):
        done = spawn(workload.command(len(samples)), workdir)
        refs.append(hostspeed.measure(done.wall))
        workload.check(len(samples), done, tally)
        samples.append(done)
    check_golden(workdir, tally)

    raw_walls = [sample.wall for sample in samples]
    walls = hostspeed.scaled(raw_walls, refs)
    setup_times = hostspeed.scaled(raw_setups, setup_refs)
    q1, wall_s, q3 = statistics.quantiles(walls, n=4)
    raw_wall_s = statistics.median(raw_walls)
    rss = statistics.median(sample.rss_mb for sample in samples)
    setup_s = statistics.median(setup_times)
    print(f"host speed: reference unit {statistics.median(refs):.4f} s "
          f"median [{min(refs):.4f}-{max(refs):.4f}] over the spawns, "
          f"nominal {hostspeed.NOMINAL_S} s; times below are at nominal "
          f"speed")
    print(f"setup_s: median {setup_s:.4f} s of {len(setup_times)} "
          f"({', '.join(f'{t:.4f}' for t in setup_times)}); raw median "
          f"{statistics.median(raw_setups):.4f} s")
    print(f"wall_s: median {wall_s:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, "
          f"n={len(walls)} ({', '.join(f'{w:.4f}' for w in walls)})")
    print(f"raw wall: median {raw_wall_s:.4f} s "
          f"({', '.join(f'{w:.4f}' for w in raw_walls)})")
    print(f"peak_rss_mb: median {rss:.1f} MB, max "
          f"{max(s.rss_mb for s in samples):.1f} MB")
    batches = [b for b in (parse_batch_summary(s.stderr) for s in samples) if b]
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    counts = exact_counts(workload.reference_records)
    print("exact: " + json.dumps(counts, sort_keys=True))

    if args.trace:
        done = spawn([sys.executable, str(HERE / "replay.py"),
                      "--workload", args.workload, "--workdir", str(workdir),
                      *workload.replay_args()], workdir, stamp=True)
        trace_path = workdir / "trace.json"
        ok = tally.check(done.code == 0 and trace_path.exists(),
                         f"traced replay exit {done.code}: "
                         f"{done.stderr.strip()[-300:]}")
        trace = (json.loads(trace_path.read_text(encoding="utf-8")) if ok
                 else {"self_seconds": {}, "counts": {}})
        if ok:
            shutil.copy(trace_path,
                        WORK_ROOT / f"trace-{args.workload}-s{args.seed}.json")
            tally.check(trace["counts"].get("replay.mismatches", 0) == 0,
                        "traced replay result differs from execute_job's")
            workload.check_replay(tally)
        metrics = layer_metrics(trace, done.wall, raw_wall_s, batches)
        metrics.update({
            "host.raw_wall_s": (raw_wall_s, "s"),
            "host.raw_setup_s": (statistics.median(raw_setups), "s"),
            "host.ref_s": (statistics.median(refs), "s"),
        })
        metrics.update(
            (name, (value, EXACT_UNITS[name])) for name, value in counts.items()
        )
        print(f"self time per layer, share of the traced wall "
              f"({done.wall:.4f} s):")
        for name in [*SELF_TIMES, "trace.unattributed_s"]:
            value = metrics[name][0]
            print(f"  {name:22s} {value:9.4f} s {100 * value / done.wall:6.1f}%")

    print(f"failed_frac: {tally.failed} of {tally.attempted} = "
          f"{tally.failed_frac:.4f}")
    for note in tally.notes:
        print(f"  {note}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
