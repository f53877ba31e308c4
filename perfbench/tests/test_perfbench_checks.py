"""The output checks behind ``failed_frac``.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
from checks import Tally, exact_counts, parse_batch_summary  # noqa: E402

SPEC = {"workload": "counter", "scale": "tiny", "threads": 2, "seed": 1}


def _workload(tmp_path: Path, specs: list[dict]) -> run.SuiteWorkload:
    workload = run.EvalSmall(tmp_path, seed=0)
    workload.suite_file.write_text(
        json.dumps({"name": "t", "specs": specs}), encoding="utf-8"
    )
    workload.describes = ["one expansion"]
    workload.finish_setup(Tally())
    return workload


def _sample(workload: run.SuiteWorkload, sample: int, tally: Tally,
            tamper: bool = False) -> None:
    done = run.spawn(workload.command(sample), workload.workdir)
    if tamper:
        path = workload.stores[sample] / "results.jsonl"
        record = json.loads(path.read_text(encoding="utf-8"))
        record["result"]["counters"]["tx.commits"] += 1
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    workload.check(sample, done, tally)


def test_identical_repetitions_pass(tmp_path: Path) -> None:
    workload, tally = _workload(tmp_path, [SPEC]), Tally()
    _sample(workload, 0, tally)
    _sample(workload, 1, tally)
    assert tally.failed == 0 and tally.attempted == 3
    assert tally.failed_frac == 0.0


def test_tampered_fingerprint_counts_as_failed(tmp_path: Path) -> None:
    workload, tally = _workload(tmp_path, [SPEC]), Tally()
    _sample(workload, 0, tally)
    _sample(workload, 1, tally, tamper=True)
    assert tally.failed == 1
    assert tally.failed_frac == pytest.approx(1 / 3)
    assert "fingerprint" in tally.notes[0]


def test_failing_job_counts_as_failed(tmp_path: Path) -> None:
    # a cycle budget the run cannot meet makes the job raise in the CLI
    broken = dict(SPEC, seed=2, system={"max_cycles": 50})
    workload, tally = _workload(tmp_path, [SPEC, broken]), Tally()
    _sample(workload, 0, tally)
    assert tally.attempted == 2 and tally.failed == 1
    assert tally.failed_frac == 0.5


def test_nonzero_exit_with_all_results_still_fails() -> None:
    tally = Tally()
    tally.jobs(expected=4, landed=4, exit_code=1, what="spawn")
    assert tally.failed == 4


def test_batch_summary_parse() -> None:
    line = ("executed 64 of 64 submitted (0 deduplicated, 0 cache hit(s)) on "
            "2 worker(s) in 0.83s (serial-equivalent 1.32s, speed-up 1.58x, "
            "77.0 sims/s)")
    assert parse_batch_summary(line) == {
        "executed": 64.0, "total": 64.0, "workers": 2.0, "wall": 0.83,
        "run": 1.32,
    }
    assert parse_batch_summary("no batch ran") is None


def test_gated_saving_pairs_gated_with_ungated() -> None:
    def record(gated: bool, energy: float) -> dict:
        return {"result": {
            "workload": "w", "scale": "tiny",
            "config": {"num_procs": 2, "seed": 0, "gating": {"enabled": gated}},
            "parallel_start": 0, "parallel_end": 10,
            "energy": {"total": energy}, "counters": {"tx.attempts": 4,
                                                      "tx.commits": 3},
        }}

    counts = exact_counts([record(False, 100.0), record(True, 80.0)])
    assert counts["power.gated_saving"] == pytest.approx(0.2)
    assert counts["tx.commit_ratio"] == 0.75
    assert counts["sim.parallel_cycles"] == 20


def test_scaling_divides_out_host_speed() -> None:
    nominal = hostspeed.NOMINAL_S
    # the host ran at half speed around the second spawn
    refs = [nominal, nominal, 2 * nominal, 2 * nominal]
    assert hostspeed.scaled([1.0, 1.5, 2.0], refs) == pytest.approx(
        [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        hostspeed.scaled([1.0], [nominal])
