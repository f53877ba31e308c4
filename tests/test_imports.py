"""Import budget: read-only commands import no numpy, networkx or simulator.

Each check runs in a fresh interpreter, so what is asserted is exactly
what the command imported.  The counts are exact; no timing is
involved.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

#: the grid the committed tests/data/figstore covers
GOLDEN_FLAGS = ["--scale", "tiny", "--seed", "0", "--grid", "2", "4",
                "--w0", "8", "--w0-values", "2", "8"]

#: modules that only a simulation may import
SIMULATION_ONLY = (
    "numpy", "networkx", "repro.htm.machine", "repro.sim.engine",
    "repro.workloads.genome",
)

#: runs ``repro.cli.main(argv)`` after ``import repro.cli``, then prints
#: the exit code and every loaded module as one JSON line
_RUN_COMMAND = """
import json, sys
import repro.cli
code = repro.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _python(script: str, *argv: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    env["REPRO_BENCH_DIR"] = str(DATA / "bench_series")
    env.pop("REPRO_OBS", None)
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run_command(argv: list[str], cwd: Path) -> tuple[int, set[str], str]:
    stdout = _python(_RUN_COMMAND, *argv, cwd=cwd)
    output, _, last = stdout.rstrip("\n").rpartition("\n")
    outcome = json.loads(last)
    return outcome["code"], set(outcome["modules"]), output


@pytest.fixture()
def warm_store(tmp_path: Path) -> Path:
    """A scratch copy of the committed figure store."""
    target = tmp_path / "figstore"
    shutil.copytree(DATA / "figstore", target)
    return target


def _read_only_commands(store: Path, out: Path) -> dict[str, list[str]]:
    where = ["--cache-dir", str(store)]
    return {
        "figures-build": ["figures", "build", "--force", *GOLDEN_FLAGS,
                          *where, "--out-dir", str(out)],
        "figures-status": ["figures", "status", *GOLDEN_FLAGS, *where,
                           "--out-dir", str(out)],
        "suite-describe": ["suite", "describe", "--suite", "paper-fig7",
                           "--scale", "tiny"],
        "suite-plan": ["suite", "plan", "--suite", "paper-eval",
                       "--scale", "tiny", *where],
        "exec-status": ["exec-status", *where],
        "list": ["list"],
    }


@pytest.mark.parametrize("command", [
    "figures-build", "figures-status", "suite-describe", "suite-plan",
    "exec-status", "list",
])
def test_read_only_command_imports_no_simulator(command, warm_store,
                                                tmp_path):
    argv = _read_only_commands(warm_store, tmp_path / "out")[command]
    code, modules, output = _run_command(argv, cwd=tmp_path)
    assert code == 0, output
    assert sorted(modules.intersection(SIMULATION_ONLY)) == []
    if command == "figures-build":
        assert "simulated 0 residual job(s)" in output


def test_every_export_resolves_and_is_listed(tmp_path):
    """Each package's ``__all__`` resolves lazily and shows in ``dir()``."""
    script = """
import importlib, json, pkgutil
import repro
packages = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
problems = []
for name in packages:
    package = importlib.import_module(name)
    listed = set(dir(package))
    for export in getattr(package, "__all__", ()):
        if export not in listed:
            problems.append(f"{name}.{export} missing from dir()")
        try:
            getattr(package, export)
        except AttributeError as exc:
            problems.append(f"{name}.{export}: {exc}")
print(json.dumps({"packages": packages, "problems": problems}))
"""
    outcome = json.loads(_python(script, cwd=tmp_path))
    assert "repro.exec" in outcome["packages"]
    assert outcome["problems"] == []


def test_names_shared_with_submodules_stay_callable(tmp_path):
    """``suite`` and ``transaction`` are functions and submodules both;
    importing the submodule must not rebind the package attribute."""
    script = """
import json
import repro
import repro.htm.transaction
import repro.scenarios.suite
print(json.dumps([
    callable(repro.scenarios.suite),
    callable(repro.htm.transaction),
    callable(repro.transaction),
]))
"""
    assert json.loads(_python(script, cwd=tmp_path)) == [True, True, True]


def test_unknown_name_is_an_attribute_error_and_subpackages_resolve(
        tmp_path):
    script = """
import json
import repro
print(json.dumps([hasattr(repro, "no_such_name"), repro.obs.__name__]))
"""
    assert json.loads(_python(script, cwd=tmp_path)) == [False, "repro.obs"]
