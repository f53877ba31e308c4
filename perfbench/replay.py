"""Traced, in-process replay of one perfbench workload.

Run by ``run.py --trace 1`` as its own process, so the replay pays the
same interpreter start and imports as the CLI it mirrors::

    python3 perfbench/replay.py --workload eval-small --workdir DIR \
        --spawned-at T [--suite FILE --reference STORE --packs]
    python3 perfbench/replay.py --workload figures-warm --workdir DIR \
        --spawned-at T --reference STORE --artifacts DIR --scale S --seed N

The replay calls the layers' public functions in the order the CLI's
untimed path runs them (``run_workload`` per job, ``Executor`` dedup,
cache probes and write-through puts, ``FigureBuilder.build``) and wraps
each call in a span: name, start, end, parent span and the job digest it
serves.  Spans stay in memory and are written once, to
``DIR/trace.json``, when the replay ends.  Nothing inside ``src/`` is
instrumented.  Each replayed result is compared with the one the
untimed CLI run stored, so the replay cannot drift from the program.
"""

from __future__ import annotations

import time

START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Iterator  # noqa: E402

from checks import artifact_set  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self, origin: float) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[dict[str, Any]] = []
        root = self._start("replay", None, origin)
        self._open.append(root)
        self.counts: dict[str, float] = {}

    def _start(self, name: str, job: str | None, at: float) -> dict[str, Any]:
        span = {
            "name": name, "start": at, "end": None, "job": job,
            "parent": self._open[-1]["id"] if self._open else None,
            "id": len(self.spans), "child": 0.0,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, job: str | None = None) -> Iterator[None]:
        span = self._start(name, job, time.monotonic())
        self._open.append(span)
        try:
            yield
        finally:
            self._close()

    def mark(self, name: str, start: float, end: float) -> None:
        """A span measured before the tracer existed (interpreter start)."""
        span = self._start(name, None, start)
        span["end"] = end
        self._open[-1]["child"] += end - start

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _close(self) -> None:
        span = self._open.pop()
        span["end"] = time.monotonic()
        if self._open:
            self._open[-1]["child"] += span["end"] - span["start"]

    def finish(self) -> dict[str, float]:
        """Close the root span; self seconds summed per span name."""
        while self._open:
            self._close()
        self_times: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - span["child"]
            self_times[span["name"]] = self_times.get(span["name"], 0.0) + own
        return self_times


def _job_replay(tr: Tracer, args: argparse.Namespace) -> None:
    """One suite batch through the same public calls the CLI makes."""
    from repro.exec.jobs import ExecResult, replicate_key
    from repro.exec.store import ResultStore
    from repro.harness.runner import RunResult
    from repro.htm.machine import Machine
    from repro.power.energy import compute_energy
    from repro.scenarios.suite import load_suite_file
    from repro.sim.timeline import verify_tiling
    from repro.workloads.registry import workload_seed_invariant

    with tr.span("scenarios.expand"):
        suite = load_suite_file(args.suite)
        specs = suite.expand()
    with tr.span("scenarios.digest"):
        jobs = [spec.to_job() for spec in specs]
        digests = [job.digest for job in jobs]
    unique = dict(zip(digests, jobs))
    tr.count("scenarios.scenarios", len(specs))
    tr.count("scenarios.jobs", len(unique))

    with tr.span("store.load"):
        store = ResultStore(Path(args.workdir) / "replay-store")
    with tr.span("store.get"):
        pending = [d for d in unique if store.get(d) is None]
    tr.count("store.probes", len(unique))
    tr.count("store.hits", len(unique) - len(pending))

    # The pool path runs each seed family (jobs equal up to their seeds)
    # in one worker: machine reset between members, seed-invariant
    # workload builds shared.  The serial path builds every job afresh.
    families: dict[str, list[str]] = {}
    for digest in pending:
        key = replicate_key(unique[digest]) if args.packs else digest
        families.setdefault(key, []).append(digest)

    reference = ResultStore(args.reference)
    for members in families.values():
        machine = None
        prep: dict[Any, Any] = {}
        for digest in members:
            job = unique[digest]
            spec, config = job.spec, job.config
            with tr.span("workloads.prep", digest):
                shared = args.packs and workload_seed_invariant(spec.name)
                key = (spec.name, spec.scale, spec.overrides, config.num_procs)
                instance = prep.get(key) if shared else None
                if instance is None:
                    instance = spec.build(config.num_procs)
                    if shared:
                        prep[key] = instance
                else:
                    tr.count("exec.shared_prep_hits")
                    if instance.seed != spec.seed:
                        instance = replace(instance, seed=spec.seed)
            if machine is None:
                with tr.span("htm.build", digest):
                    machine = Machine(
                        config, instance.programs,
                        initial_memory=instance.initial_memory,
                    )
            else:
                with tr.span("htm.reset", digest):
                    machine.reset(
                        config, instance.programs,
                        initial_memory=instance.initial_memory,
                    )
                tr.count("exec.pack_reset_reuses")
            with tr.span("sim.simulate", digest):
                mresult = machine.run()
            tr.count("sim.events", machine.engine.events_executed)
            window = (mresult.parallel_start, mresult.parallel_end)
            with tr.span("harness.validate", digest):
                if job.validate:
                    verify_tiling(mresult.timelines, *window)
                    instance.validate_final_memory(mresult.memory_snapshot)
            with tr.span("power.energy", digest):
                energy = compute_energy(
                    mresult.timelines, window, job.power,
                    gated_run=config.gating.enabled,
                )
            with tr.span("exec.condense", digest):
                result = ExecResult.from_run_result(
                    RunResult(
                        workload=instance.name, scale=instance.scale,
                        config=config, machine_result=mresult, energy=energy,
                        counters=mresult.counters(),
                    ),
                    job.power,
                )
            with tr.span("store.put", digest):
                store.put(digest, result, job=job)
            if not args.packs:
                machine = None
            with tr.span("bench.verify", digest):
                if reference.get(digest) != result:
                    tr.count("replay.mismatches")
    store.close()
    reference.close()


def _figures_replay(tr: Tracer, args: argparse.Namespace) -> None:
    """``repro figures build --force`` through its public calls."""
    from repro.exec.store import ResultStore
    from repro.figures.extract import ExtractionContext, get_extractor
    from repro.figures.registry import available_figures, get_figure
    from repro.figures.render import figure_payload, render_json
    from repro.figures.spec import FigureParams, figure_digest
    from repro.power.model import PowerModel
    from repro.scenarios.runner import ScenarioResult

    with tr.span("store.load"):
        store = ResultStore(args.reference)
    model = PowerModel.derive()
    params = FigureParams(scale=args.scale, seed=args.seed)
    with tr.span("figures.plan"):
        figures = [get_figure(name) for name in available_figures()]
        resolved = []
        for spec in figures:
            get_extractor(spec.extractor)
            suite = spec.resolve_suite(params)
            resolved.append(
                (spec, suite, figure_digest(spec, suite, params, model))
            )
        suites = {
            suite.to_json(): suite for _s, suite, _d in resolved
            if suite is not None
        }
    # plan: one expansion and one store probe per unique suite
    all_digests: set[str] = set()
    for suite in suites.values():
        with tr.span("scenarios.expand"):
            specs = suite.expand()
        with tr.span("scenarios.digest"):
            digests = [spec.to_job(power=model).digest for spec in specs]
        tr.count("scenarios.scenarios", len(specs))
        with tr.span("store.get"):
            hits = sum(1 for digest in set(digests) if digest in store)
        tr.count("store.probes", len(set(digests)))
        tr.count("store.hits", hits)
        all_digests.update(digests)
    tr.count("scenarios.jobs", len(all_digests))

    out_dir = Path(args.workdir) / "replay-figures"
    fetched: dict[str, Any] = {}
    for spec, suite, digest in resolved:
        results: tuple[Any, ...] = ()
        job_digests: list[str] = []
        if suite is not None:
            key = suite.to_json()
            if key not in fetched:
                with tr.span("scenarios.expand"):
                    specs = suite.expand()
                with tr.span("scenarios.digest"):
                    digests = [s.to_job(power=model).digest for s in specs]
                with tr.span("store.get"):
                    got = [store.get(d) for d in digests]
                tr.count("store.probes", len(digests))
                tr.count("store.hits", sum(1 for r in got if r is not None))
                fetched[key] = (
                    tuple(ScenarioResult(spec=s, result=r)
                          for s, r in zip(specs, got)),
                    sorted(set(digests)),
                )
            results, job_digests = fetched[key]
        with tr.span("figures.render"):
            data = get_extractor(spec.extractor)(ExtractionContext(
                params=params, power=model, results=results
            ))
            payload = figure_payload(
                spec=spec, suite=suite, digest=digest, data=data,
                job_digests=job_digests, store_backend=store.backend.name,
            )
            out_dir.mkdir(parents=True, exist_ok=True)
            render_json(payload, out_dir / f"{spec.name}.json")
    store.close()
    with tr.span("bench.verify"):
        if artifact_set(out_dir) != artifact_set(Path(args.artifacts)):
            tr.count("replay.mismatches")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--suite")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--packs", action="store_true")
    parser.add_argument("--artifacts")
    parser.add_argument("--scale", default="tiny")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    tr = Tracer(args.spawned_at)
    tr.mark("cli.startup", args.spawned_at, START)
    with tr.span("cli.import"):
        sys.path.insert(0, str(ROOT / "src"))
        import repro.cli  # noqa: F401
    if args.workload == "figures-warm":
        _figures_replay(tr, args)
    else:
        _job_replay(tr, args)
    self_times = tr.finish()
    spans = [
        {key: span[key] for key in ("name", "start", "end", "parent", "job")}
        for span in tr.spans
    ]
    Path(args.workdir, "trace.json").write_text(json.dumps({
        "self_seconds": self_times, "counts": tr.counts, "spans": spans,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
