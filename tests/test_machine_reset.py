"""Machine reset-not-rebuild: bit-identical warm state across a pack.

The pack warm path (PR 10) rests on one contract: a machine that has
been ``reset()`` produces numbers byte-identical to a freshly
constructed one.  These tests pin that contract at every level — the
raw ``Machine.reset`` parity, the :class:`RunReuse` cache policy, and
the end-to-end identity of a reset-reusing pack with per-member
rebuilds (``execute_job`` alone, and the serial executor path).
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError, WorkloadError
from repro.exec.executor import Executor
from repro.exec.jobs import PackStats, RunJob, execute_job, execute_pack
from repro.exec.serialize import result_to_dict
from repro.exec.store import ResultStore
from repro.harness.runner import RunReuse, run_workload, workload
from repro.htm.machine import Machine
from repro.sim.stats import StatsRegistry
from repro.workloads.registry import build_workload, workload_seed_invariant


def config_for(seed: int, *, procs: int = 2, gated: bool = True) -> SystemConfig:
    return SystemConfig(num_procs=procs, seed=seed).with_gating(gated, w0=8)


def fresh_run(name: str, seed: int, *, gated: bool = True):
    return run_workload(
        workload(name, scale="tiny", seed=seed), config_for(seed, gated=gated)
    )


def fingerprint(result) -> dict:
    """Everything observable from one run, as comparable plain data."""
    m = result.machine_result
    return {
        "counters": dict(result.counters),
        "end_cycle": m.end_cycle,
        "window": (m.parallel_start, m.parallel_end),
        "memory": dict(m.memory_snapshot),
        "energy_total": result.energy.total,
        "energy_by_state": {
            s.name: v for s, v in result.energy.by_state.items()
        },
    }


class TestMachineResetParity:
    """reset() restores pristine state: rebuild and reset agree exactly."""

    @pytest.mark.parametrize("name", ["counter", "bank", "llist"])
    @pytest.mark.parametrize("gated", [True, False])
    def test_reset_matches_rebuild(self, name, gated):
        reuse = RunReuse()
        # Seed 3 warms the machine, seed 4 rides the reset path.
        run_workload(
            workload(name, scale="tiny", seed=3),
            config_for(3, gated=gated),
            reuse=reuse,
        )
        warm = run_workload(
            workload(name, scale="tiny", seed=4),
            config_for(4, gated=gated),
            reuse=reuse,
        )
        assert reuse.machine_resets == 1
        assert fingerprint(warm) == fingerprint(fresh_run(name, 4, gated=gated))

    def test_double_reset_matches_rebuild(self):
        """Reset to a new seed and back again — still pristine."""
        reuse = RunReuse()
        for seed in (5, 6, 5):
            warm = run_workload(
                workload("counter", scale="tiny", seed=seed),
                config_for(seed),
                reuse=reuse,
            )
        assert reuse.machine_resets == 2
        assert fingerprint(warm) == fingerprint(fresh_run("counter", 5))

    def test_reset_rejects_topology_change(self):
        inst2 = build_workload("counter", scale="tiny", num_threads=2, seed=1)
        inst4 = build_workload("counter", scale="tiny", num_threads=4, seed=1)
        machine = Machine(
            config_for(1), inst2.programs, initial_memory=inst2.initial_memory
        )
        with pytest.raises(ConfigError, match="topology"):
            machine.reset(
                config_for(1, procs=4),
                inst4.programs,
                initial_memory=inst4.initial_memory,
            )

    def test_reset_accepts_seed_change_only(self):
        inst = build_workload("counter", scale="tiny", num_threads=2, seed=1)
        machine = Machine(
            config_for(1), inst.programs, initial_memory=inst.initial_memory
        )
        machine.reset(
            config_for(9), inst.programs, initial_memory=inst.initial_memory
        )
        assert machine.config.seed == 9

    def test_reset_rejects_wrong_program_count(self):
        inst = build_workload("counter", scale="tiny", num_threads=2, seed=1)
        machine = Machine(
            config_for(1), inst.programs, initial_memory=inst.initial_memory
        )
        with pytest.raises(ConfigError):
            machine.reset(config_for(1), inst.programs[:1])


class TestStatsRegistryReset:
    def test_reset_zeroes_but_keeps_handles(self):
        stats = StatsRegistry()
        c = stats.counter("tx.commits")
        h = stats.histogram("tx.latency")
        c.add(7)
        h.record(3)
        stats.reset()
        assert stats.counter("tx.commits") is c
        assert stats.histogram("tx.latency") is h
        assert stats.counters() == {}
        assert h.count == 0

    def test_counters_after_reset_match_fresh(self):
        stats = StatsRegistry()
        stats.counter("b.two")
        stats.counter("a.one")
        stats.reset()
        stats.counter("a.one").add(2)
        stats.counter("b.two").add(1)
        fresh = StatsRegistry()
        fresh.counter("b.two")
        fresh.counter("a.one")
        fresh.counter("a.one").add(2)
        fresh.counter("b.two").add(1)
        assert stats.counters() == fresh.counters()
        assert list(stats.counters()) == list(fresh.counters())  # sorted

    def test_order_cache_tracks_new_registrations(self):
        stats = StatsRegistry()
        stats.counter("m.mid").add(1)
        assert list(stats.counters()) == ["m.mid"]
        stats.counter("a.early").add(1)  # registers after first pass
        assert list(stats.counters()) == ["a.early", "m.mid"]


class TestRunReuse:
    def test_prep_cache_hits_only_seed_invariant_workloads(self):
        assert workload_seed_invariant("counter")
        assert workload_seed_invariant("array_walk")
        assert not workload_seed_invariant("bank")
        assert not workload_seed_invariant("kmeans")
        with pytest.raises(WorkloadError):
            workload_seed_invariant("no-such-workload")

    def test_prep_cache_restamps_seed(self):
        reuse = RunReuse()
        for seed in (1, 2):
            result = run_workload(
                workload("counter", scale="tiny", seed=seed),
                config_for(seed),
                reuse=reuse,
            )
            assert result.config.seed == seed
        assert reuse.prep_hits == 1

    def test_seed_dependent_workload_never_prep_cached(self):
        reuse = RunReuse()
        for seed in (1, 2):
            run_workload(
                workload("bank", scale="tiny", seed=seed),
                config_for(seed),
                reuse=reuse,
            )
        assert reuse.prep_hits == 0
        assert reuse.machine_resets == 1  # machine reuse is independent

    def test_discard_machine_forces_rebuild(self):
        reuse = RunReuse()
        run_workload(
            workload("counter", scale="tiny", seed=1),
            config_for(1),
            reuse=reuse,
        )
        reuse.discard_machine()
        run_workload(
            workload("counter", scale="tiny", seed=2),
            config_for(2),
            reuse=reuse,
        )
        assert reuse.machine_resets == 0

    def test_different_topology_is_not_reset_reused(self):
        reuse = RunReuse()
        run_workload(
            workload("counter", scale="tiny", seed=1),
            config_for(1),
            reuse=reuse,
        )
        run_workload(
            workload("counter", scale="tiny", seed=1),
            config_for(1, gated=False),
            reuse=reuse,
        )
        assert reuse.machine_resets == 0


class TestPackResetIdentity:
    """End-to-end: reset-reuse and per-member rebuilds are identical."""

    def seed_family(self, count: int = 4) -> list[RunJob]:
        return [
            RunJob(
                workload("counter", scale="tiny", seed=seed),
                config_for(seed),
            )
            for seed in range(1, count + 1)
        ]

    def test_pack_stats_count_warm_members(self):
        outcomes, stats = execute_pack(self.seed_family())
        assert all(o.error is None for o in outcomes)
        assert stats == PackStats(reset_reuses=3, shared_prep_hits=3)

    def test_reset_on_off_results_bit_identical(self):
        """A pack (reset between members) vs each member built afresh."""
        jobs = self.seed_family()
        on, _ = execute_pack(jobs)
        off = [execute_job(job) for job in jobs]
        assert [result_to_dict(o.result) for o in on] == [
            result_to_dict(result) for result in off
        ]

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_reset_on_off_stores_identical(self, tmp_path, backend):
        """The pool path (packs, reset reuse) vs the serial path (a
        fresh machine per job)."""
        jobs = self.seed_family()

        def normalized(directory):
            store = ResultStore(directory, backend=backend)
            records = {
                digest: result_to_dict(store.get(digest))
                for digest, _label in store.labels()
            }
            store.close()
            return records

        Executor(jobs=2,
                 store=ResultStore(tmp_path / "on", backend=backend)).run(jobs)
        Executor(jobs=1,
                 store=ResultStore(tmp_path / "off", backend=backend)).run(jobs)
        on, off = normalized(tmp_path / "on"), normalized(tmp_path / "off")
        assert sorted(on) == sorted(off)
        assert on == off
