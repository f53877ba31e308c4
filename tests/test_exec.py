"""repro.exec: job digests, dedup, parallel bit-equality, result cache."""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.exec.executor import Executor
from repro.exec.jobs import SCHEMA_VERSION, ExecResult, RunJob, execute_job
from repro.exec.progress import ConsoleProgress, ProgressListener
from repro.exec.serialize import (
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.exec.store import ResultStore
from repro.harness.runner import run_workload, workload
from repro.harness.sweep import w0_sensitivity

TINY = SystemConfig(num_procs=2, seed=1)


def tiny_job(name: str = "counter", *, gated: bool = True, w0: int = 8,
             seed: int = 1, procs: int = 2, cm: str = "gating-aware") -> RunJob:
    config = SystemConfig(num_procs=procs, seed=seed).with_gating(
        gated, w0=w0, contention_manager=cm
    )
    return RunJob(workload(name, scale="tiny", seed=seed), config)


class TestDigests:
    def test_digest_is_stable(self):
        assert tiny_job().digest == tiny_job().digest

    def test_digest_distinguishes_every_axis(self):
        base = tiny_job()
        variants = [
            tiny_job(seed=2),
            tiny_job(procs=4),
            tiny_job(w0=16),
            tiny_job(gated=False),
            tiny_job("intruder"),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == 1 + len(variants)

    def test_power_model_is_part_of_the_digest(self):
        from repro.power.model import PowerModel

        a = RunJob(workload("counter", scale="tiny"), TINY)
        b = RunJob(workload("counter", scale="tiny"), TINY,
                   power=PowerModel(gated=0.25))
        assert a.digest != b.digest

    def test_ungated_digest_collapses_w0_for_w0_independent_cm(self):
        """One shared ungated baseline serves a whole W0 sweep."""
        a = tiny_job(gated=False, w0=1)
        b = tiny_job(gated=False, w0=32)
        assert a.digest == b.digest
        # ...and the collapse is empirically sound: identical numbers.
        ra, rb = execute_job(a), execute_job(b)
        da, db = result_to_dict(ra), result_to_dict(rb)
        da.pop("config"), db.pop("config")  # echoes the submitted w0
        assert da == db

    def test_ungated_digest_keeps_w0_for_backoff_cms(self):
        """Exponential back-off derives its ungated delay from w0."""
        a = tiny_job(gated=False, w0=2, cm="exponential")
        b = tiny_job(gated=False, w0=16, cm="exponential")
        assert a.digest != b.digest

    def test_gated_digest_never_collapses_w0(self):
        assert tiny_job(w0=4).digest != tiny_job(w0=16).digest


class TestSerialization:
    def test_config_roundtrip(self):
        config = TINY.with_gating(True, w0=3)
        assert config_from_dict(config_to_dict(config)) == config

    def test_result_roundtrip_is_exact(self):
        result = execute_job(tiny_job())
        via_json = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert via_json == result
        assert via_json.energy.total == result.energy.total

    def test_exec_result_mirrors_run_result(self):
        job = tiny_job()
        direct = run_workload(job.spec, job.config, power_model=job.power)
        condensed = execute_job(job)
        assert condensed.parallel_time == direct.parallel_time
        assert condensed.end_cycle == direct.end_cycle
        assert condensed.energy.total == direct.energy.total
        assert condensed.counters == direct.counters
        assert condensed.commits == direct.commits
        assert condensed.aborts == direct.aborts
        assert condensed.summary() == direct.summary()


class TestExecutor:
    GRID = [
        tiny_job("counter"),
        tiny_job("counter", gated=False),
        tiny_job("intruder"),
        tiny_job("intruder", gated=False),
    ]

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = Executor(jobs=1).run(self.GRID)
        parallel = Executor(jobs=2).run(self.GRID)
        assert [result_to_dict(r) for r in serial] == [
            result_to_dict(r) for r in parallel
        ]

    def test_results_keep_submission_order(self):
        results = Executor(jobs=2).run(self.GRID)
        assert [r.workload for r in results] == [
            "counter", "counter", "intruder", "intruder"
        ]
        assert [r.config.gating.enabled for r in results] == [
            True, False, True, False
        ]

    def test_in_batch_dedup(self):
        exe = Executor()
        results = exe.run([self.GRID[0]] * 3 + [self.GRID[1]])
        assert exe.last_report.total == 4
        assert exe.last_report.executed == 2
        assert exe.last_report.deduplicated == 2
        assert result_to_dict(results[0]) == result_to_dict(results[1])

    def test_baseline_dedup_across_w0_points(self):
        """Ungated baselines at different W0 collapse to one execution."""
        exe = Executor()
        jobs = [tiny_job(gated=False, w0=w0) for w0 in (1, 4, 32)]
        results = exe.run(jobs)
        assert exe.last_report.executed == 1
        # every caller still sees the config it submitted
        assert [r.config.gating.w0 for r in results] == [1, 4, 32]

    def test_worker_failure_is_wrapped(self):
        bad = RunJob(workload("no-such-workload", scale="tiny"), TINY)
        with pytest.raises(ExecutionError, match="no-such-workload"):
            Executor(jobs=2).run([bad, tiny_job()])

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ExecutionError):
            Executor(jobs=-1)

    def test_progress_hooks_fire(self, capsys):
        import sys

        exe = Executor(progress=ConsoleProgress(stream=sys.stderr))
        exe.run([self.GRID[0], self.GRID[0]])
        err = capsys.readouterr().err
        assert "2 job(s) -> 1 unique" in err
        assert "executed 1 of 2 submitted" in err

    def test_null_progress_is_silent(self, capsys):
        Executor(progress=ProgressListener()).run([self.GRID[0]])
        assert capsys.readouterr().err == ""


class TestResultStore:
    def test_cache_hit_miss_roundtrip(self, tmp_path):
        job = tiny_job()
        first = Executor(store=ResultStore(tmp_path))
        fresh = first.run([job])
        assert first.last_report.executed == 1

        second = Executor(store=ResultStore(tmp_path))
        cached = second.run([job])
        assert second.last_report.executed == 0
        assert second.last_report.cache_hits == 1
        assert result_to_dict(cached[0]) == result_to_dict(fresh[0])

    def test_changed_parameters_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(store=store).run([tiny_job()])
        exe = Executor(store=store)
        exe.run([tiny_job(seed=2)])
        assert exe.last_report.executed == 1

    def test_invalidation_forces_reexecution(self, tmp_path):
        job = tiny_job()
        store = ResultStore(tmp_path)
        Executor(store=store).run([job])
        assert store.invalidate(job.digest)
        assert job.digest not in store
        exe = Executor(store=store)
        exe.run([job])
        assert exe.last_report.executed == 1
        # tombstone survives a reload of the same directory
        assert tiny_job().digest in ResultStore(tmp_path)

    def test_refresh_skips_reads_but_writes(self, tmp_path):
        job = tiny_job()
        store = ResultStore(tmp_path)
        Executor(store=store).run([job])
        exe = Executor(store=store, refresh=True)
        exe.run([job])
        assert exe.last_report.executed == 1
        assert len(store) == 1

    def test_corrupt_and_foreign_schema_lines_skipped(self, tmp_path):
        job = tiny_job()
        store = ResultStore(tmp_path)
        Executor(store=store).run([job])
        with store.path.open("a") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps({"digest": "x", "schema": SCHEMA_VERSION + 1,
                                 "result": {}}) + "\n")
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.stats().skipped_records == 2
        assert reloaded.get(job.digest) is not None

    def test_clear_and_compact(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(store=store).run([tiny_job(), tiny_job(gated=False)])
        store.invalidate(tiny_job().digest)
        store.compact()
        assert len(ResultStore(tmp_path)) == 1
        assert store.clear() == 1
        assert len(ResultStore(tmp_path)) == 0

    def test_completed_results_survive_batch_failure(self, tmp_path):
        """Write-through: work done before a failing job is not lost."""
        store = ResultStore(tmp_path)
        good = tiny_job()
        bad = RunJob(workload("no-such-workload", scale="tiny"), TINY)
        with pytest.raises(ExecutionError):
            Executor(store=store).run([good, bad])
        assert good.digest in store
        exe = Executor(store=ResultStore(tmp_path))
        exe.run([good])
        assert exe.last_report.cache_hits == 1

    def test_stats_summary_renders(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(store=store).run([tiny_job()])
        text = store.stats().summary()
        assert "1 entries" in text
        assert f"schema v{SCHEMA_VERSION}" in text

    def test_prune_drops_dead_lines_keeps_live_results(self, tmp_path):
        store = ResultStore(tmp_path)
        keep, drop = tiny_job(), tiny_job(gated=False)
        Executor(store=store).run([keep, drop])
        store.invalidate(drop.digest)  # dead record + tombstone line
        with store.path.open("a") as fh:
            fh.write("{crashed mid-append\n")
            fh.write(json.dumps({"digest": "old", "schema": SCHEMA_VERSION - 1,
                                 "result": {}}) + "\n")
        store = ResultStore(tmp_path)
        bytes_before = store.path.stat().st_size
        report = store.prune()
        # 5 lines before (2 results + tombstone + corrupt + stale), 1 live
        assert report.lines_dropped == 4
        assert report.entries == 1
        assert report.bytes_reclaimed == bytes_before - store.path.stat().st_size
        assert "pruned 4 dead line(s)" in report.summary()
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.stats().skipped_records == 0
        assert reloaded.get(keep.digest) is not None

    def test_prune_on_clean_store_is_a_no_op(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(store=store).run([tiny_job()])
        content = store.path.read_text()
        report = store.prune()
        assert report.lines_dropped == 0
        assert report.bytes_reclaimed == 0
        assert store.path.read_text() == content


def _hammer_store(directory: str, worker: int, payload: dict, n: int) -> None:
    """Child-process entry point: append *n* distinct records to one store."""
    store = ResultStore(directory)
    result = result_from_dict(payload)
    for i in range(n):
        store.put(f"{'0' * 40}worker{worker:04d}rec{i:08d}", result)
    store.close()


class TestStoreConcurrency:
    """Regression: concurrent appends must never tear/lose records."""

    def test_multiprocess_puts_lose_nothing(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        payload = result_to_dict(execute_job(tiny_job()))
        workers, per_worker = 4, 25
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_hammer_store, str(tmp_path), w, payload, per_worker)
                for w in range(workers)
            ]
            for future in futures:
                future.result()
        reloaded = ResultStore(tmp_path)
        # Before advisory locking, interleaved appends tore JSONL lines
        # that load() silently dropped as skipped records.
        assert reloaded.stats().skipped_records == 0
        assert len(reloaded) == workers * per_worker

    def test_clear_resets_skipped_counter(self, tmp_path):
        """clear() must not report stale skipped counts afterwards."""
        store = ResultStore(tmp_path)
        Executor(store=store).run([tiny_job()])
        with store.path.open("a") as fh:
            fh.write("{torn line\n")
        store = ResultStore(tmp_path)
        assert store.stats().skipped_records == 1
        store.clear()
        assert store.stats().skipped_records == 0
        # ...and the truncated file really is free of the dead line
        assert ResultStore(tmp_path).stats().skipped_records == 0

    def test_contains_counts_hits_and_misses(self, tmp_path):
        """`in` and get() share one accounting contract (exec-status)."""
        job = tiny_job()
        store = ResultStore(tmp_path)
        Executor(store=store).run([job])
        probe = ResultStore(tmp_path)
        assert job.digest in probe
        assert "deadbeef" not in probe
        assert (probe.hits, probe.misses) == (1, 1)
        probe.get(job.digest)
        assert (probe.hits, probe.misses) == (2, 1)
        # len()/labels()/records()/stats() never touch the counters
        len(probe), list(probe.labels()), list(probe.records()), probe.stats()
        assert (probe.hits, probe.misses) == (2, 1)


class TestReplicatePacks:
    """Seed-family packing: identical results, fewer pool dispatches."""

    def seed_family(self, count: int = 4) -> list[RunJob]:
        return [tiny_job(seed=seed) for seed in range(1, count + 1)]

    def test_replicate_key_groups_only_seed_variants(self):
        from repro.exec.jobs import replicate_key

        family = {replicate_key(job) for job in self.seed_family()}
        assert len(family) == 1
        strangers = [
            tiny_job(procs=4),
            tiny_job(w0=16),
            tiny_job(gated=False),
            tiny_job("intruder"),
        ]
        assert all(replicate_key(job) not in family for job in strangers)

    def test_pack_results_match_per_process_bit_for_bit(self):
        # two families of an odd seed count: stripes of 3 and 2 each
        jobs = [
            tiny_job(name, seed=seed)
            for name in ("counter", "bank")
            for seed in range(1, 6)
        ] + [tiny_job("intruder")]
        packed = Executor(jobs=2).run(jobs)
        serial = Executor(jobs=1).run(jobs)
        standalone = [execute_job(job) for job in jobs]
        assert [result_to_dict(r) for r in packed] == [
            result_to_dict(r) for r in serial
        ] == [result_to_dict(r) for r in standalone]

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_pack_and_per_process_stores_are_identical(self, tmp_path, backend):
        """The store never sees packs: a pool run (packed) and a serial
        run (fresh machine per job) land the same digests and records."""
        jobs = self.seed_family()

        def normalized(directory):
            store = ResultStore(directory, backend=backend)
            records = {}
            for digest, _label in store.labels():
                records[digest] = result_to_dict(store.get(digest))
            store.close()
            return records

        Executor(jobs=2,
                 store=ResultStore(tmp_path / "pool", backend=backend)).run(jobs)
        Executor(jobs=1,
                 store=ResultStore(tmp_path / "serial", backend=backend)).run(jobs)
        pool = normalized(tmp_path / "pool")
        serial = normalized(tmp_path / "serial")
        assert sorted(pool) == sorted(serial)
        assert pool == serial

    def test_pack_identity_under_shard(self, tmp_path):
        """Sharding partitions by job digest, so packs cannot change it."""
        from repro.scenarios.runner import Shard

        jobs = self.seed_family(6)
        shard = Shard(index=1, count=2)
        owned = [job for job in jobs if shard.owns(job.digest)]
        assert 0 < len(owned) < len(jobs)  # a real partition
        packed = Executor(jobs=2).run(owned)
        serial = Executor(jobs=1).run(owned)
        assert [result_to_dict(r) for r in packed] == [
            result_to_dict(r) for r in serial
        ]

    def test_pack_member_failure_spares_siblings(self, tmp_path, monkeypatch):
        """One bad seed fails its job; the rest of the pack still lands."""
        import repro.exec.executor as executor_mod

        # Force everything into one pack so the bad job shares a unit
        # with the good ones.
        monkeypatch.setattr(
            executor_mod, "replicate_key", lambda job: "one-family"
        )
        good = self.seed_family(2)
        bad = RunJob(workload("no-such-workload", scale="tiny"), TINY)
        store = ResultStore(tmp_path)
        with pytest.raises(ExecutionError, match="no-such-workload"):
            Executor(jobs=2, store=store).run(good + [bad])
        assert all(job.digest in store for job in good)
        assert bad.digest not in store

    def test_execute_pack_isolates_member_exceptions(self):
        from repro.exec.jobs import execute_pack

        bad = RunJob(workload("no-such-workload", scale="tiny"), TINY)
        outcomes, stats = execute_pack([bad, tiny_job()])
        assert outcomes[0].result is None
        assert "no-such-workload" in outcomes[0].error
        assert outcomes[0].traceback
        assert outcomes[1].result is not None and outcomes[1].error is None
        # the failed member dropped the cached machine, and the good
        # member built fresh after it — nothing was reset-reused
        assert stats.reset_reuses == 0

    def test_dispatch_units_split_to_fill_workers(self):
        jobs = self.seed_family(8)
        pending = [(job.digest, job) for job in jobs]
        exe = Executor(jobs=4)
        units = exe._dispatch_units(pending, workers=4)
        assert [len(unit) for unit in units] == [2, 2, 2, 2]
        # flattened order covers exactly the pending jobs
        flat = [digest for unit in units for digest, _job in unit]
        assert sorted(flat) == sorted(digest for digest, _job in pending)

    #: per-member cost of each pool family, in arbitrary units
    POOL_COSTS = {"genome": 33, "intruder": 27, "counter": 14, "bank": 27}

    def pool_batch(self) -> list[tuple[str, RunJob]]:
        """The 4 families x 32 seeds batch, family by family."""
        jobs = [
            tiny_job(name, seed=seed)
            for name in self.POOL_COSTS
            for seed in range(1, 33)
        ]
        return [(job.digest, job) for job in jobs]

    def test_dispatch_units_stripe_every_family(self):
        pending = self.pool_batch()
        units = Executor(jobs=2)._dispatch_units(pending, 2)
        assert [len(unit) for unit in units] == [16] * 8
        # family order kept, each family's two stripes adjacent
        assert [unit[0][1].spec.name for unit in units] == [
            name for name in self.POOL_COSTS for _stripe in range(2)
        ]
        assert all(
            len({job.spec.name for _digest, job in unit}) == 1
            for unit in units
        )
        # flattened, the units replay the submission order exactly
        assert [entry for unit in units for entry in unit] == pending

    def test_dispatch_units_stripe_sizes(self):
        exe = Executor(jobs=4)

        def sizes(count: int, workers: int) -> list[int]:
            pending = [(job.digest, job) for job in self.seed_family(count)]
            return [len(u) for u in exe._dispatch_units(pending, workers)]

        assert sizes(5, 2) == [3, 2]
        assert sizes(3, 4) == [3]  # 3 // MIN_PACK_SIZE: one stripe only
        assert sizes(2, 2) == [2]
        assert sizes(1, 2) == [1]
        # singletons of other specs stay singletons, in submission order
        strangers = [tiny_job(procs=4), tiny_job("intruder")]
        pending = [(job.digest, job) for job in strangers]
        assert exe._dispatch_units(pending, 2) == [[e] for e in pending]

    def test_stripes_balance_the_pool_makespan(self):
        """List-schedule the units on 2 workers: striped dispatch ends
        at half the total cost, whole-pack dispatch does not."""
        import heapq

        def makespan(units) -> int:
            free = [(0, worker) for worker in range(2)]
            for unit in units:
                at, worker = heapq.heappop(free)
                cost = sum(self.POOL_COSTS[job.spec.name] for _d, job in unit)
                heapq.heappush(free, (at + cost, worker))
            return max(at for at, _worker in free)

        pending = self.pool_batch()
        exe = Executor(jobs=2)
        total = sum(self.POOL_COSTS[job.spec.name] for _d, job in pending)
        assert total == 3232
        assert makespan(exe._dispatch_units(pending, 2)) == total // 2
        # one whole pack per family (the 1-worker split) runs genome and
        # then bank on one worker: 1056 + 864
        assert makespan(exe._dispatch_units(pending, 1)) == 1920


class TestSweepIntegration:
    """The acceptance criterion: a cached sweep re-runs nothing."""

    def test_w0_sweep_is_fully_cached_on_second_run(self, tmp_path):
        spec = workload("counter", scale="tiny", seed=2)
        config = SystemConfig(num_procs=2, seed=2)
        w0_values = (2, 8)

        exe1 = Executor(store=ResultStore(tmp_path))
        first = w0_sensitivity(spec, config, w0_values, executor=exe1)
        assert exe1.last_report.executed == 1 + len(w0_values)

        exe2 = Executor(jobs=2, store=ResultStore(tmp_path))
        second = w0_sensitivity(spec, config, w0_values, executor=exe2)
        assert exe2.last_report.executed == 0
        assert exe2.last_report.cache_hits == 1 + len(w0_values)
        assert first == second

    def test_sweep_matches_legacy_serial_path(self):
        """Executor-backed sweep == direct run_workload loop, exactly."""
        spec = workload("counter", scale="tiny", seed=2)
        config = SystemConfig(num_procs=2, seed=2)
        curves = w0_sensitivity(spec, config, (4, 16), executor=Executor(jobs=2))

        baseline = run_workload(spec, config.with_gating(False))
        for w0 in (4, 16):
            gated = run_workload(spec, config.with_gating(True).with_w0(w0))
            point = curves[w0]
            assert point["n1"] == float(baseline.parallel_time)
            assert point["n2"] == float(gated.parallel_time)
            assert point["speedup"] == (
                baseline.parallel_time / gated.parallel_time
            )
            assert point["energy_reduction"] == (
                baseline.energy.total / gated.energy.total
            )
