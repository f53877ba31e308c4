"""Declarative scenarios: specs, suites, and spec-driven execution.

The scenario layer turns evaluation matrices into *data*:

* :class:`~repro.scenarios.spec.ScenarioSpec` — one run, fully
  described (workload + schema-validated parameters + machine shape +
  contention management), with a stable content digest and exact JSON
  round-trip.
* :class:`~repro.scenarios.suite.ScenarioSuite` — a base spec plus
  axes; expansion takes the cartesian product and validates every
  point before anything is simulated.
* :mod:`~repro.scenarios.runner` — lowers specs to
  :class:`~repro.exec.jobs.RunJob` values and submits the whole grid
  as one batch through the executor and its content-addressed cache.
* :mod:`~repro.scenarios.builtin` — the paper's figure grids (and
  extensions over the new kernels) as named suites:
  ``repro suite run --suite paper-fig7``.
"""

from __future__ import annotations

from typing import Any

from .. import _lazy

# ``suite`` names both a submodule and the function it defines: bind
# the function eagerly, once the submodule has loaded, so a later
# ``import repro.scenarios.suite`` cannot rebind it (see repro._lazy).
from .suite import suite

__all__ = [
    "SCENARIO_SCHEMA_VERSION",
    "ScenarioSpec",
    "scenario",
    "ScenarioSuite",
    "SpecListSuite",
    "suite",
    "load_suite_file",
    "ScenarioResult",
    "SuiteRun",
    "Shard",
    "PlanEntry",
    "SuitePlan",
    "plan_suite",
    "run_specs",
    "run_suite",
    "available_suites",
    "get_suite",
    "register_suite",
    "suite_help",
]

_EXPORTS: _lazy.Exports = {
    ".builtin": (
        "available_suites", "get_suite", "register_suite", "suite_help",
    ),
    ".runner": (
        "PlanEntry", "ScenarioResult", "Shard", "SuitePlan", "SuiteRun",
        "plan_suite", "run_specs", "run_suite",
    ),
    ".spec": ("SCENARIO_SCHEMA_VERSION", "ScenarioSpec", "scenario"),
    ".suite": ("ScenarioSuite", "SpecListSuite", "load_suite_file"),
}


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)


def __dir__() -> list[str]:
    return _lazy.names(__name__, _EXPORTS)
