"""CLI surface: every subcommand runs and prints what it promises."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: committed stdout of the figure-table commands; regenerate one with
#: ``python -m repro <argv> > tests/data/cli_golden/<name>.txt`` only
#: when its output legitimately changes
CLI_GOLDEN = Path(__file__).parent / "data" / "cli_golden"


def run_cli(capsys, *argv: str) -> str:
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def _table_row(out: str, first: str) -> list[str]:
    """The first table row of *out* whose first cell is *first*."""
    for line in out.splitlines():
        if line.split()[:1] == [first]:
            return line.split()
    raise AssertionError(f"no row starting with {first!r} in:\n{out}")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_list(self, capsys):
        out = run_cli(capsys, "list")
        assert "intruder" in out
        assert "labyrinth" in out
        assert "gating-aware" in out
        assert "momentum" in out
        assert "paper-fig7" in out

    def test_run(self, capsys):
        out = run_cli(
            capsys, "run", "counter", "--scale", "tiny", "--procs", "2",
            "--seed", "3",
        )
        assert "Run report — counter" in out
        assert "gating:" in out

    def test_run_ungated_with_serial_check(self, capsys):
        out = run_cli(
            capsys, "run", "counter", "--scale", "tiny", "--procs", "2",
            "--no-gating", "--check-serial",
        )
        assert "ungated" in out
        assert "serializability: OK" in out

    def test_run_csv_export(self, capsys, tmp_path):
        path = tmp_path / "timelines.csv"
        out = run_cli(
            capsys, "run", "counter", "--scale", "tiny", "--procs", "2",
            "--csv-timelines", str(path),
        )
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "proc,start,end,state"
        assert str(path) in out

    def test_compare(self, capsys):
        out = run_cli(
            capsys, "compare", "counter", "--scale", "tiny", "--procs", "2",
        )
        assert "Eq. 6" in out
        assert "speed-up" in out

    def test_evaluate_tiny(self, capsys):
        out = run_cli(
            capsys, "evaluate", "--scale", "tiny", "--grid", "2",
            "--seed", "4",
        )
        assert "Fig. 4" in out and "Fig. 5" in out and "Fig. 6" in out
        assert "averages over 3 points" in out

    def test_evaluate_honours_cm(self, capsys):
        grid = ("--scale", "tiny", "--seed", "4")
        polite = _table_row(
            run_cli(capsys, "evaluate", *grid, "--grid", "2", "--cm", "polite"),
            "intruder",
        )
        default = _table_row(
            run_cli(capsys, "evaluate", *grid, "--grid", "2"), "intruder"
        )
        compared = run_cli(
            capsys, "compare", "intruder", *grid, "--procs", "2",
            "--cm", "polite",
        )
        n1, n2 = re.findall(r"N = (\d+) cycles", compared)
        speedup = re.search(r"speed-up ([\d.]+),", compared).group(1)
        assert polite == ["intruder", "2", n1, n2, speedup]
        assert polite != default

    def test_sweep(self, capsys):
        out = run_cli(
            capsys, "sweep", "counter", "--scale", "tiny", "--procs", "2",
            "--w0-values", "4", "16",
        )
        assert "Fig. 7" in out
        assert "16" in out

    def test_cache_power(self, capsys):
        out = run_cli(capsys, "cache-power")
        assert "Fig. 3" in out
        assert "105.000" in out

    def test_momentum_cm_via_cli(self, capsys):
        out = run_cli(
            capsys, "run", "counter", "--scale", "tiny", "--procs", "2",
            "--cm", "momentum",
        )
        assert "Run report" in out


class TestGoldenOutput:
    @pytest.mark.parametrize("name, argv", [
        ("evaluate",
         ("evaluate", "--scale", "tiny", "--grid", "2", "--seed", "4")),
        ("sweep",
         ("sweep", "counter", "--scale", "tiny", "--procs", "2",
          "--w0-values", "2", "8")),
        ("cache_power", ("cache-power",)),
    ])
    def test_stdout_matches_golden(self, capsys, name, argv):
        golden = (CLI_GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert run_cli(capsys, *argv) == golden


class TestExecFlags:
    def test_sweep_parallel_matches_serial(self, capsys):
        argv = ("sweep", "counter", "--scale", "tiny", "--procs", "2",
                "--w0-values", "4", "16")
        serial = run_cli(capsys, *argv, "--jobs", "1")
        parallel = run_cli(capsys, *argv, "--jobs", "2")
        assert parallel == serial

    def test_sweep_cached_second_run(self, capsys, tmp_path):
        argv = ("sweep", "counter", "--scale", "tiny", "--procs", "2",
                "--w0-values", "4", "--cache-dir", str(tmp_path), "--progress")
        first = run_cli(capsys, *argv)
        code = main(list(argv))
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "executed 0" in captured.err
        assert "2 cache hit(s)" in captured.err

    def test_no_cache_flag_re_executes(self, capsys, tmp_path):
        argv = ("compare", "counter", "--scale", "tiny", "--procs", "2",
                "--cache-dir", str(tmp_path))
        run_cli(capsys, *argv)
        assert main([*argv, "--no-cache", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "Eq. 6" in captured.out
        assert "executed 2" in captured.err

    def test_evaluate_with_workers(self, capsys):
        out = run_cli(
            capsys, "evaluate", "--scale", "tiny", "--grid", "2",
            "--seed", "4", "--jobs", "2",
        )
        assert "Fig. 4" in out and "averages over 3 points" in out

    def test_exec_status(self, capsys, tmp_path):
        run_cli(
            capsys, "sweep", "counter", "--scale", "tiny", "--procs", "2",
            "--w0-values", "4", "--cache-dir", str(tmp_path),
        )
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--verbose")
        assert "2 entries" in out
        assert "counter: 2 cached run(s)" in out
        assert "ungated" in out

    def test_exec_status_empty_store(self, capsys, tmp_path):
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path))
        assert "0 entries" in out

    def test_exec_status_missing_dir_is_an_error(self, capsys, tmp_path):
        missing = tmp_path / "typo-cahce"
        assert main(["exec-status", "--cache-dir", str(missing)]) == 1
        assert "no result store" in capsys.readouterr().err
        assert not missing.exists()

    def test_exec_status_prune(self, capsys, tmp_path):
        from repro.exec.store import ResultStore

        run_cli(
            capsys, "sweep", "counter", "--scale", "tiny", "--procs", "2",
            "--w0-values", "4", "8", "--cache-dir", str(tmp_path),
        )
        store = ResultStore(tmp_path)
        victim = next(digest for digest, _label in store.labels())
        store.invalidate(victim)
        size_before = store.path.stat().st_size
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--prune")
        assert "pruned 2 dead line(s)" in out  # dead record + tombstone
        assert "2 entries" in out
        assert store.path.stat().st_size < size_before

    def test_exec_status_prune_is_idempotent(self, capsys, tmp_path):
        run_cli(
            capsys, "compare", "counter", "--scale", "tiny", "--procs", "2",
            "--cache-dir", str(tmp_path),
        )
        first = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                        "--prune")
        second = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                         "--prune")
        assert "pruned 0 dead line(s)" in second
        assert "2 entries" in first and "2 entries" in second


class TestSuiteCommands:
    def test_suite_list(self, capsys):
        out = run_cli(capsys, "suite", "list")
        for name in ("paper-fig7", "paper-eval", "smoke", "stamp-extended"):
            assert name in out

    def test_suite_describe(self, capsys):
        out = run_cli(capsys, "suite", "describe", "--suite", "smoke")
        assert "expands to 4 scenario(s)" in out
        assert "unique jobs after dedup: 3" in out
        assert "counter[tiny]" in out

    def test_suite_describe_json(self, capsys):
        import json

        out = run_cli(capsys, "suite", "describe", "--suite", "smoke",
                      "--json")
        specs = json.loads(out)
        assert len(specs) == 4
        assert all(spec["workload"] == "counter" for spec in specs)
        from repro.scenarios import ScenarioSpec

        restored = [ScenarioSpec.from_dict(spec) for spec in specs]
        assert len({spec.digest for spec in restored}) == 4

    def test_suite_describe_scale_override(self, capsys):
        out = run_cli(capsys, "suite", "describe", "--suite", "smoke",
                      "--scale", "small")
        assert "counter[small]" in out

    def test_suite_run_cached_second_pass_zero_sims(self, capsys, tmp_path):
        argv = ("suite", "run", "--suite", "smoke", "--jobs", "2",
                "--cache-dir", str(tmp_path), "--progress")
        first = run_cli(capsys, *argv)
        assert "suite smoke — 4 scenario(s)" in first
        assert "gated vs ungated pairs" in first
        code = main(list(argv))
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == first  # bit-identical results from cache
        assert "executed 0 of 4 submitted" in captured.err
        assert "3 cache hit(s)" in captured.err

    def test_suite_unknown_name(self, capsys):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="unknown suite"):
            main(["suite", "run", "--suite", "paper-fig9"])


class TestExecStatusGc:
    """`exec-status --prune --older-than/--label` — store GC policies."""

    def _seed(self, capsys, tmp_path):
        run_cli(
            capsys, "sweep", "counter", "--scale", "tiny", "--procs", "2",
            "--w0-values", "4", "8", "--cache-dir", str(tmp_path),
        )

    def test_label_gc(self, capsys, tmp_path):
        self._seed(capsys, tmp_path)  # 3 entries: 1 ungated + 2 gated
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--prune", "--label", "ungated")
        assert "1 expired by policy" in out
        assert "2 entries" in out

    def test_age_gc_keeps_fresh_entries(self, capsys, tmp_path):
        self._seed(capsys, tmp_path)
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--prune", "--older-than", "30")
        assert "expired by policy" not in out
        assert "3 entries" in out

    def test_age_gc_expires_old_entries(self, capsys, tmp_path):
        self._seed(capsys, tmp_path)
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--prune", "--older-than", "0")
        assert "3 expired by policy" in out
        assert "0 entries" in out

    def test_gc_flags_require_prune(self, capsys, tmp_path):
        self._seed(capsys, tmp_path)
        assert main(["exec-status", "--cache-dir", str(tmp_path),
                     "--older-than", "30"]) == 2
        assert "add --prune" in capsys.readouterr().err
