"""Experiment harness (system S10 in DESIGN.md).

High-level entry points:

* :func:`~repro.harness.runner.run_workload` — one workload on one
  configuration, with energy accounting and functional validation.
* :func:`~repro.harness.compare.compare_gating` — the paired
  with/without-clock-gating methodology of Figs. 4–6.
* :func:`~repro.harness.sweep.w0_sensitivity` — one Fig. 7 curve.

The paper's full evaluation grids are scenario suites
(:mod:`repro.scenarios.builtin`), and its tables and figures are
rendered by :mod:`repro.figures`.
"""

from typing import Any

from .. import _lazy

__all__ = [
    "RunResult",
    "WorkloadSpec",
    "run_workload",
    "workload",
    "GatingComparison",
    "compare_gating",
    "w0_sensitivity",
    "proc_scaling",
    "format_table",
    "format_matrix",
    "check_serializability",
    "available_workloads",
]

_EXPORTS: _lazy.Exports = {
    ".runner": ("RunResult", "WorkloadSpec", "run_workload", "workload"),
    ".compare": ("GatingComparison", "compare_gating"),
    ".sweep": ("w0_sensitivity", "proc_scaling"),
    ".reporting": ("format_table", "format_matrix"),
    ".validation": ("check_serializability",),
    "..workloads.registry": ("available_workloads",),
}


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)


def __dir__() -> list[str]:
    return _lazy.names(__name__, _EXPORTS)
