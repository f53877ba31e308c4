"""The benchmark definitions: event kernel up to whole-suite runs.

Every benchmark is deterministic (fixed seeds, fixed work per
repetition) so before/after comparisons measure the code, not the
workload.  ``check=True`` shrinks the work to CI-smoke size — the
numbers are meaningless for regression tracking but prove the
benchmarks still run.

Benchmarks
----------
``bench_engine``
    The discrete-event kernel alone: a self-rescheduling event
    population (mimicking in-flight memory operations) plus a stream of
    one-shot events, measured in events executed per second.  This is
    the floor every simulated cycle pays.
``bench_stats``
    Counter/histogram update throughput through pre-resolved handles —
    the accounting cost of every cache access and transaction event.
``bench_timeline``
    State-timeline recording plus the energy layer's interval sweep
    over the recorded change-points (the Eq. 1–5 consumption path).
``bench_cache``
    L1 lookup/touch/fill traffic with a working set sized to force a
    realistic mix of hits, misses and evictions.
``bench_directory``
    A sustained directory flush storm: one fill preamble establishes
    full sharer fan-out, then back-to-back TID-ordered commit flushes
    (64 lines x 8 words each, writes precomputed outside the timed
    region) keep the directory on its commit-application path — the
    batched flush-service loop the PR 7 rewrite targets, measured in
    lines committed per second.
``bench_replicates``
    Seed replicates of one spec through the pool executor — the
    replicate-pack dispatch path (one warmed process serving a whole
    seed family instead of one round-trip per job).
``bench_replicates_marginal``
    The pack warm path in isolation: one in-process ``execute_pack``
    over a seed family, reporting the *marginal*-seed cost (members
    served by ``Machine.reset`` and the shared prep cache) as the
    headline rate, with the first-seed (cold build) cost in ``meta``.
    This is the number the pack-shared warm state work moves: the
    first seed pays construction, every further seed pays only the
    simulation.
``bench_e2e_suite``
    The ``smoke`` scenario suite end-to-end on a cold cache (serial
    executor, no result store) — simulations per second as a user
    experiences them.  Runs at ``medium`` scale (``tiny`` in check
    mode) so the measured work is dominated by simulation, not setup.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..errors import BenchmarkError
from .core import BenchResult, run_timed

__all__ = ["BENCHMARKS", "available_benchmarks", "run_benchmarks"]


# ----------------------------------------------------------------------
# micro: event engine
# ----------------------------------------------------------------------
def bench_engine(check: bool = False, repeats: int = 5, warmup: int = 2) -> BenchResult:
    from ..sim.engine import Engine, cancel

    population = 64           # concurrently-scheduled recurring events
    horizon = 400 if check else 20_000  # cycles simulated per repetition

    def one_repetition() -> int:
        engine = Engine()

        def recur(delay: int) -> None:
            # Self-rescheduling callback with one argument: the common
            # shape of memory/bus completion events.
            if engine.now < horizon:
                engine.schedule(delay, recur, delay)

        def one_shot() -> None:
            pass

        for i in range(population):
            engine.schedule(i % 7, recur, 1 + i % 5)
            engine.schedule(i % 11, one_shot)
        # A sprinkling of cancellations so the lazy-deletion path stays
        # on the profile (aborted HTM operations cancel their events).
        for i in range(0, horizon, 50):
            cancel(engine.schedule(i + 1, one_shot))
        engine.run()
        return engine.events_executed

    return run_timed(
        one_repetition,
        name="bench_engine",
        unit="events",
        repeats=repeats,
        warmup=warmup,
        meta={"population": population, "horizon": horizon, "check": check},
    )


# ----------------------------------------------------------------------
# micro: statistics registry
# ----------------------------------------------------------------------
def bench_stats(check: bool = False, repeats: int = 5, warmup: int = 2) -> BenchResult:
    from ..sim.stats import StatsRegistry

    ops = 2_000 if check else 400_000

    def one_repetition() -> int:
        stats = StatsRegistry()
        # The hot path binds handles once and calls .add()/.record();
        # this is exactly what processor/cache construction does.
        hits = stats.counter("proc0.cache.hits")
        misses = stats.counter("proc0.cache.misses")
        busy = stats.counter("bus.busy_cycles")
        lat = stats.histogram("tx.latency")
        add_hit = hits.add
        add_miss = misses.add
        add_busy = busy.add
        record = lat.record
        for i in range(ops):
            add_hit()
            if not i % 16:
                add_miss()
            add_busy(3)
            if not i % 64:
                record(i & 1023)
        return ops

    return run_timed(
        one_repetition,
        name="bench_stats",
        unit="bumps",
        repeats=repeats,
        warmup=warmup,
        meta={"ops": ops, "check": check},
    )


# ----------------------------------------------------------------------
# micro: timeline recording + energy interval sweep
# ----------------------------------------------------------------------
def bench_timeline(check: bool = False, repeats: int = 5, warmup: int = 2) -> BenchResult:
    from ..power.energy import compute_energy
    from ..power.model import PowerModel
    from ..power.states import ProcState
    from ..sim.timeline import StateTimeline

    procs = 8
    changes = 200 if check else 20_000  # state changes per processor
    cycle = (ProcState.RUN, ProcState.MISS, ProcState.RUN, ProcState.COMMIT,
             ProcState.GATED)
    model = PowerModel.derive()

    def one_repetition() -> int:
        timelines = []
        end = 0
        for p in range(procs):
            tl = StateTimeline(ProcState.RUN)
            t = 0
            for i in range(changes):
                t += 1 + (i * 7 + p * 3) % 9
                tl.set_state(t, cycle[(i + p) % len(cycle)])
            end = max(end, t + 1)
            timelines.append(tl)
        for tl in timelines:
            tl.finalize(end)
        compute_energy(timelines, (0, end), model, gated_run=True)
        return procs * changes

    return run_timed(
        one_repetition,
        name="bench_timeline",
        unit="changes",
        repeats=repeats,
        warmup=warmup,
        meta={"procs": procs, "changes": changes, "check": check},
    )


# ----------------------------------------------------------------------
# micro: L1 cache
# ----------------------------------------------------------------------
def bench_cache(check: bool = False, repeats: int = 5, warmup: int = 2) -> BenchResult:
    from ..config import CacheConfig
    from ..mem.cache import L1Cache
    from ..sim.stats import StatsRegistry

    accesses = 2_000 if check else 300_000
    config = CacheConfig()
    lines = config.num_lines * 2  # working set at 2x capacity: mixes in misses

    def one_repetition() -> int:
        cache = L1Cache(config, proc_id=0, stats=StatsRegistry())
        line = 1
        for i in range(accesses):
            # Multiplicative-congruential walk: deterministic, scattered
            # across sets, revisits lines often enough to produce hits.
            line = (line * 1103515245 + 12345 + i) % lines
            entry = cache.touch(line)
            if entry is None:
                cache.fill(line)
            if not i % 9:
                cache.mark_spec_read(line)
            if not i % 101:
                cache.clear_speculative((line,), commit=True)
        return accesses

    return run_timed(
        one_repetition,
        name="bench_cache",
        unit="accesses",
        repeats=repeats,
        warmup=warmup,
        meta={"accesses": accesses, "ways": config.ways, "check": check},
    )


# ----------------------------------------------------------------------
# micro: directory flush storm
# ----------------------------------------------------------------------
class _SinkProc:
    """Stand-in processor absorbing directory-to-processor traffic.

    Only the three entry points the directory calls are provided; the
    read-set makes every invalidation look like a conflict so the
    abort-probe branch stays on the measured path.
    """

    __slots__ = ("read_lines",)

    def __init__(self, read_lines):
        self.read_lines = set(read_lines)

    def would_abort_on(self, lines) -> bool:
        read = self.read_lines
        return any(line in read for line in lines)

    def receive_invalidation(self, msg, gate) -> None:
        pass

    def receive_flush_done(self, msg) -> None:
        pass

    def receive_fill_reply(self, msg) -> None:
        pass


class _SinkMachine:
    __slots__ = ("_procs",)

    def __init__(self, procs):
        self._procs = procs

    def proc(self, pid):
        return self._procs[pid]


def bench_directory(check: bool = False, repeats: int = 5, warmup: int = 2) -> BenchResult:
    from ..config import BusConfig, DirectoryConfig, MemoryConfig
    from ..mem.address import AddressMap
    from ..mem.bus import Bus
    from ..mem.directory import Directory
    from ..mem.memory import MainMemory
    from ..mem.messages import FillRequest, FlushRequest
    from ..sim.engine import Engine
    from ..sim.stats import StatsRegistry

    procs = 8
    lines_per_flush = 64
    words_per_line = 8
    rounds = 4 if check else 125
    line_bytes = 64
    block = tuple(range(lines_per_flush))
    # Flush bodies are precomputed outside the timed region so the
    # measurement is the directory's commit-application path, not
    # bench-side tuple construction.  Distinct values per processor keep
    # the memory image changing across flushes.
    writes_of = [
        tuple(
            (line * line_bytes + w * 8, pid * words_per_line + w)
            for line in block
            for w in range(words_per_line)
        )
        for pid in range(procs)
    ]

    def one_repetition() -> int:
        engine = Engine()
        stats = StatsRegistry()
        addr_map = AddressMap(
            line_bytes=line_bytes, num_dirs=1, memory_bytes=1 << 30
        )
        bus = Bus(engine, BusConfig(), stats)
        memory = MainMemory(engine, MemoryConfig(), stats)
        directory = Directory(
            0, engine, bus, memory, DirectoryConfig(), addr_map, stats
        )
        directory.attach(_SinkMachine([_SinkProc(block) for _ in range(procs)]))

        # One fan-out preamble: every processor shares every line, so
        # the first round of flushes victimizes all peers; from then on
        # each flush re-homes the lines to its committer, keeping a
        # steady single-victim invalidation stream without re-filling.
        fill_seq = 0
        for pid in range(procs):
            for line in block:
                fill_seq += 1
                directory.receive_fill_request(
                    FillRequest(pid, line, engine.now, fill_seq)
                )
        engine.run()

        tid = 0
        for _ in range(rounds):
            for pid in range(procs):
                tid += 1
                directory.receive_flush_request(
                    FlushRequest(
                        pid, tid, block, writes_of[pid], engine.now, "bench"
                    )
                )
                engine.run()
        return rounds * procs * lines_per_flush

    return run_timed(
        one_repetition,
        name="bench_directory",
        unit="lines",
        repeats=repeats,
        warmup=warmup,
        meta={
            "procs": procs,
            "lines_per_flush": lines_per_flush,
            "words_per_line": words_per_line,
            "rounds": rounds,
            "check": check,
        },
    )


# ----------------------------------------------------------------------
# meso: seed replicates through the pool executor
# ----------------------------------------------------------------------
def bench_replicates(
    check: bool = False, repeats: int | None = None, warmup: int | None = None
) -> BenchResult:
    from ..exec.executor import Executor
    from ..scenarios.spec import ScenarioSpec

    replicates = 4 if check else 16
    workers = 2
    if repeats is None:
        repeats = 1 if check else 3
    if warmup is None:
        warmup = 0 if check else 1

    def one_repetition() -> int:
        jobs = [
            ScenarioSpec(
                workload="counter", scale="tiny", threads=2, seed=seed
            ).to_job()
            for seed in range(replicates)
        ]
        results = Executor(jobs=workers).run(jobs)
        if len(results) != replicates:
            raise BenchmarkError(
                f"bench_replicates expected {replicates} results, "
                f"got {len(results)}"
            )
        return replicates

    return run_timed(
        one_repetition,
        name="bench_replicates",
        unit="sims",
        repeats=repeats,
        warmup=warmup,
        meta={"replicates": replicates, "workers": workers, "check": check},
    )


# ----------------------------------------------------------------------
# meso: marginal-seed cost inside one in-process replicate pack
# ----------------------------------------------------------------------
def bench_replicates_marginal(
    check: bool = False, repeats: int | None = None, warmup: int | None = None
) -> BenchResult:
    import math

    from ..exec.jobs import execute_pack
    from ..scenarios.spec import ScenarioSpec

    replicates = 4 if check else 16
    if repeats is None:
        repeats = 2 if check else 5
    if warmup is None:
        warmup = 1
    if repeats < 1:
        raise BenchmarkError("bench_replicates_marginal: repeats must be >= 1")

    def run_pack():
        jobs = [
            ScenarioSpec(
                workload="counter", scale="tiny", threads=2, seed=seed
            ).to_job()
            for seed in range(replicates)
        ]
        result = execute_pack(jobs)
        # Tolerate both return shapes so this benchmark can also be
        # dropped into an older checkout to capture a "before" session
        # (execute_pack used to return the outcome list alone).
        outcomes = result[0] if isinstance(result, tuple) else result
        if len(outcomes) != replicates or any(o.error for o in outcomes):
            raise BenchmarkError(
                "bench_replicates_marginal expected "
                f"{replicates} clean outcomes"
            )
        return outcomes

    for _ in range(warmup):
        run_pack()

    # Custom timing loop (not run_timed): the measured quantity is the
    # per-member marginal cost *excluding* the pack's first member, and
    # execute_pack already times each member individually — so one pack
    # per repetition yields both numbers, best-of across repetitions.
    first_samples: list[float] = []
    marginal_samples: list[float] = []
    for _ in range(repeats):
        outcomes = run_pack()
        first_samples.append(outcomes[0].seconds)
        marginal_samples.append(
            math.fsum(o.seconds for o in outcomes[1:]) / (replicates - 1)
        )
    best = min(marginal_samples)
    mean = sum(marginal_samples) / len(marginal_samples)
    if len(marginal_samples) > 1:
        var = sum((s - mean) ** 2 for s in marginal_samples) / (
            len(marginal_samples) - 1
        )
    else:
        var = 0.0
    if best <= 0.0:
        best = 1e-9
    return BenchResult(
        name="bench_replicates_marginal",
        unit="sims",
        units_per_repeat=1,
        repeats=repeats,
        warmup=warmup,
        best_seconds=best,
        mean_seconds=mean,
        stddev_seconds=math.sqrt(var),
        units_per_second=1.0 / best,
        meta={
            "replicates": replicates,
            "first_seed_best_seconds": min(first_samples),
            "first_seed_mean_seconds": (
                sum(first_samples) / len(first_samples)
            ),
            "check": check,
        },
    )


# ----------------------------------------------------------------------
# meso: the smoke suite, end to end, cold cache
# ----------------------------------------------------------------------
def bench_e2e_suite(
    check: bool = False, repeats: int | None = None, warmup: int | None = None
) -> BenchResult:
    from ..exec.executor import Executor
    from ..scenarios.builtin import get_suite
    from ..scenarios.runner import run_suite

    # medium keeps the measurement simulation-dominated; check mode
    # shrinks the work (like every other bench), not the shape.
    scale = "tiny" if check else "medium"
    suite = get_suite("smoke", scale=scale)
    # Explicit repeats/warmup always win (matching the other benches);
    # only the *defaults* shrink in check mode.
    if repeats is None:
        repeats = 1 if check else 3
    if warmup is None:
        warmup = 0 if check else 1

    def one_repetition() -> int:
        # Serial executor, no result store: every repetition simulates
        # every unique job from scratch (cold cache by construction).
        outcome = run_suite(suite, executor=Executor(jobs=1))
        report = outcome.report
        executed = report.executed if report is not None else 0
        if executed <= 0:
            raise BenchmarkError(
                "bench_e2e_suite expected cold-cache execution but the "
                "executor reports zero jobs run"
            )
        return executed

    return run_timed(
        one_repetition,
        name="bench_e2e_suite",
        unit="sims",
        repeats=repeats,
        warmup=warmup,
        meta={
            "suite": suite.name,
            "scenarios": suite.size,
            "scale": scale,
            "check": check,
        },
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
BENCHMARKS: dict[str, Callable[..., BenchResult]] = {
    "bench_engine": bench_engine,
    "bench_stats": bench_stats,
    "bench_timeline": bench_timeline,
    "bench_cache": bench_cache,
    "bench_directory": bench_directory,
    "bench_replicates": bench_replicates,
    "bench_replicates_marginal": bench_replicates_marginal,
    "bench_e2e_suite": bench_e2e_suite,
}


def available_benchmarks() -> list[str]:
    return list(BENCHMARKS)


def run_benchmarks(
    names: Sequence[str] | None = None,
    check: bool = False,
    repeats: int | None = None,
    warmup: int | None = None,
    progress: Callable[[str], Any] | None = None,
) -> list[BenchResult]:
    """Run benchmarks by name (all of them by default), in listed order."""
    selected = list(names) if names else available_benchmarks()
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise BenchmarkError(
            f"unknown benchmark(s) {', '.join(unknown)}; available: "
            f"{', '.join(available_benchmarks())}"
        )
    results = []
    for name in selected:
        if progress is not None:
            progress(name)
        kwargs: dict[str, Any] = {"check": check}
        if repeats is not None:
            kwargs["repeats"] = repeats
        if warmup is not None:
            kwargs["warmup"] = warmup
        results.append(BENCHMARKS[name](**kwargs))
    return results
