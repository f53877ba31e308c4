"""Harness: runner, comparison, sweeps and reporting."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import HarnessError, ProtocolError
from repro.harness.compare import compare_gating
from repro.harness.reporting import format_matrix, format_table
from repro.harness.runner import RunResult, WorkloadSpec, run_workload, workload
from repro.harness.sweep import proc_scaling, w0_sensitivity
from repro.harness.validation import check_serializability
from repro.htm.machine import CommittedTx, MachineResult
from repro.power.report import format_energy_report
from repro.sim.timeline import StateTimeline
from repro.power.states import ProcState
from repro.sim.stats import StatsRegistry


class TestWorkloadSpec:
    def test_workload_helper(self):
        spec = workload("intruder", scale="tiny", seed=3, flows=6)
        assert spec.name == "intruder"
        assert spec.overrides == (("flows", 6),)
        inst = spec.build(2)
        assert inst.params["flows"] == 6

    def test_spec_builds_for_config_procs(self):
        result = run_workload(
            workload("counter", scale="tiny"), SystemConfig(num_procs=2, seed=1)
        )
        assert result.config.num_procs == 2

    def test_string_source(self):
        result = run_workload("counter", SystemConfig(num_procs=2, seed=1))
        assert result.workload == "counter"

    def test_instance_thread_mismatch(self):
        inst = workload("counter", scale="tiny").build(4)
        with pytest.raises(HarnessError, match="threads"):
            run_workload(inst, SystemConfig(num_procs=2))

    def test_bad_source_type(self):
        with pytest.raises(HarnessError):
            run_workload(1234, SystemConfig())  # type: ignore[arg-type]


class TestRunResult:
    @pytest.fixture(scope="class")
    def result(self) -> RunResult:
        return run_workload(
            workload("counter", scale="tiny", seed=1),
            SystemConfig(num_procs=4, seed=1),
        )

    def test_fields(self, result):
        assert result.workload == "counter"
        assert result.parallel_time > 0
        assert result.end_cycle >= result.parallel_time
        assert result.commits == 40  # 4 threads x 10 tiny increments
        assert 0.0 <= result.abort_rate < 1.0
        assert result.energy.total > 0

    def test_summary_text(self, result):
        text = result.summary()
        assert "counter" in text
        assert "gated" in text


class TestCompareGating:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_gating(
            workload("counter", scale="tiny", seed=5),
            SystemConfig(num_procs=4, seed=5),
        )

    def test_metrics_consistent(self, comparison):
        assert comparison.n1 == comparison.ungated.parallel_time
        assert comparison.n2 == comparison.gated.parallel_time
        assert comparison.speedup == pytest.approx(comparison.n1 / comparison.n2)
        expected_power = comparison.energy_reduction * (
            comparison.n2 / comparison.n1
        )
        assert comparison.power_reduction == pytest.approx(expected_power)

    def test_modes_actually_differ(self, comparison):
        assert not comparison.ungated.config.gating.enabled
        assert comparison.gated.config.gating.enabled
        assert comparison.gated.counters.get("gating.gated", 0) > 0
        assert comparison.ungated.counters.get("gating.gated", 0) == 0

    def test_energy_report_renders(self, comparison):
        text = format_energy_report(comparison.energy_report())
        assert "with clock gating" in text
        assert "Eq. 6" in text

    def test_summary(self, comparison):
        assert "counter x4" in comparison.summary()


class TestSweeps:
    def test_w0_sensitivity_structure(self):
        curves = w0_sensitivity(
            workload("counter", scale="tiny", seed=2),
            SystemConfig(num_procs=2, seed=2),
            w0_values=(4, 16),
        )
        assert set(curves) == {4, 16}
        for point in curves.values():
            assert set(point) >= {"speedup", "energy_reduction", "power_reduction"}
            assert point["n1"] > 0

    def test_proc_scaling(self):
        results = proc_scaling(
            workload("counter", scale="tiny", seed=2),
            SystemConfig(num_procs=2, seed=2),
            proc_counts=(1, 2),
        )
        assert set(results) == {1, 2}
        assert results[1].config.num_procs == 1


class TestReporting:
    def test_format_table(self):
        text = format_table(
            ["app", "value"], [["genome", 1.2345], ["yada", 10]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "app" in lines[1]
        assert "1.234" in text and "10" in text

    def test_format_matrix(self):
        text = format_matrix(
            ["r1"], [1, 2], {"r1": {1: 0.5, 2: 0.25}}, corner="W0"
        )
        assert "W0" in text
        assert "0.500" in text

    def test_matrix_missing_cell(self):
        text = format_matrix(["r"], [1], {})
        assert "-" in text


class TestSerializabilityChecker:
    """The checker itself must catch seeded violations."""

    @staticmethod
    def make_result(commits, snapshot):
        timelines = [StateTimeline(ProcState.RUN)]
        timelines[0].finalize(10)
        return MachineResult(
            config=SystemConfig(num_procs=1),
            end_cycle=10,
            parallel_start=0,
            parallel_end=10,
            timelines=timelines,
            stats=StatsRegistry(),
            commit_log=commits,
            memory_snapshot=snapshot,
        )

    def test_accepts_consistent_history(self):
        commits = [
            CommittedTx(1, 0, "a", 5, reads=((8, 0),), writes=((8, 1),)),
            CommittedTx(2, 1, "a", 6, reads=((8, 1),), writes=((8, 2),)),
        ]
        result = self.make_result(commits, {8: 2})
        check_serializability({}, result, [])

    def test_detects_stale_read(self):
        commits = [
            CommittedTx(1, 0, "a", 5, reads=(), writes=((8, 1),)),
            CommittedTx(2, 1, "a", 6, reads=((8, 0),), writes=()),  # stale!
        ]
        result = self.make_result(commits, {8: 1})
        with pytest.raises(ProtocolError, match="serializability violation"):
            check_serializability({}, result, [])

    def test_detects_final_state_divergence(self):
        commits = [CommittedTx(1, 0, "a", 5, reads=(), writes=((8, 1),))]
        result = self.make_result(commits, {8: 999})
        with pytest.raises(ProtocolError, match="diverges"):
            check_serializability({}, result, [])

    def test_detects_duplicate_tids(self):
        commits = [
            CommittedTx(1, 0, "a", 5, reads=(), writes=()),
            CommittedTx(1, 1, "a", 6, reads=(), writes=()),
        ]
        result = self.make_result(commits, {})
        with pytest.raises(ProtocolError, match="duplicate"):
            check_serializability({}, result, [])

    def test_initial_image_respected(self):
        commits = [CommittedTx(1, 0, "a", 5, reads=((8, 42),), writes=())]
        result = self.make_result(commits, {8: 42})
        check_serializability({8: 42}, result, [])

    def test_nontx_writes_interleaved(self):
        commits = [CommittedTx(5, 0, "a", 100, reads=((8, 7),), writes=())]
        result = self.make_result(commits, {8: 7})
        # non-tx write of 7 at t=50 precedes the commit at t=100
        check_serializability({}, result, [(50, 8, 7, -1)])
