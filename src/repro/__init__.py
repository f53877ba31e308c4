"""repro — Clock Gate on Abort: energy-efficient hardware TM (IPPS 2009).

A complete architectural reproduction of Sanyal et al.'s clock-gating
HTM study: a Scalable-TCC-style hardware transactional memory on a
directory-based NUMA machine, the clock-gate-on-abort protocol with its
gating-aware contention management (Eq. 8), the Alpha 21264 @ 65 nm
power model (Table I) with interval energy accounting (Eqs. 1–7), and
STAMP-equivalent workloads (genome, yada, intruder).

Quickstart::

    from repro import SystemConfig, run_workload, workload

    wl = workload("intruder", scale="tiny")
    config = SystemConfig(num_procs=4, seed=7)
    result = run_workload(wl, config)
    print(result.parallel_time, result.energy.total)

See ``examples/`` for full scenarios and ``benchmarks/`` for the
experiments that regenerate every table and figure of the paper.
"""

from typing import Any

from . import _lazy
from .config import (
    BusConfig,
    CacheConfig,
    CommitConfig,
    DirectoryConfig,
    GatingConfig,
    MemoryConfig,
    SystemConfig,
)
from .errors import (
    CacheOverflowError,
    ConfigError,
    DeadlockError,
    HarnessError,
    MemoryModelError,
    ProtocolError,
    ReproError,
    SimulationError,
    WorkloadError,
)

__version__ = "1.0.0"

__all__ = [
    # configuration
    "SystemConfig",
    "CacheConfig",
    "BusConfig",
    "DirectoryConfig",
    "MemoryConfig",
    "CommitConfig",
    "GatingConfig",
    # errors
    "ReproError",
    "ConfigError",
    "SimulationError",
    "DeadlockError",
    "ProtocolError",
    "MemoryModelError",
    "CacheOverflowError",
    "WorkloadError",
    "HarnessError",
    # HTM / programs
    "Machine",
    "MachineResult",
    "ThreadProgram",
    "ThreadContext",
    "Load",
    "Store",
    "Compute",
    "TxOp",
    "BarrierOp",
    "transaction",
    # power
    "ProcState",
    "PowerModel",
    "PowerModelParams",
    "EnergyBreakdown",
    "EnergyReport",
    "compute_energy",
    "format_energy_report",
    "tcc_cache_power_curve",
    "tcc_total_power_factor",
    # high-level API
    "run_workload",
    "compare_gating",
    "workload",
    "available_workloads",
    "RunResult",
    "GatingComparison",
    # parallel execution / caching
    "Executor",
    "RunJob",
    "ExecResult",
    "ResultStore",
    # declarative scenarios and figures
    "ScenarioSpec",
    "ScenarioSuite",
    "scenario",
    "run_suite",
    "get_suite",
    "available_suites",
    "FigureBuilder",
    "FigureParams",
    "FigureSpec",
    "available_figures",
    "__version__",
]

# Everything beyond config and errors resolves on first access, so
# ``import repro`` does not import numpy or the simulator.
_EXPORTS: _lazy.Exports = {
    ".htm": (
        "BarrierOp", "Compute", "Load", "Machine", "MachineResult", "Store",
        "ThreadContext", "ThreadProgram", "TxOp", "transaction",
    ),
    ".power": (
        "EnergyBreakdown", "EnergyReport", "PowerModel", "PowerModelParams",
        "ProcState", "compute_energy", "format_energy_report",
        "tcc_cache_power_curve", "tcc_total_power_factor",
    ),
    ".harness": (
        "GatingComparison", "RunResult", "available_workloads",
        "compare_gating", "run_workload", "workload",
    ),
    ".exec": ("ExecResult", "Executor", "ResultStore", "RunJob"),
    ".scenarios": (
        "ScenarioSpec", "ScenarioSuite", "available_suites", "get_suite",
        "run_suite", "scenario",
    ),
    ".figures": (
        "FigureBuilder", "FigureParams", "FigureSpec", "available_figures",
    ),
}


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)


def __dir__() -> list[str]:
    return _lazy.names(__name__, _EXPORTS)
