"""Parameter sweeps: the Fig. 7 sensitivity analysis and scaling studies.

Fig. 7 plots speed-up (gated vs ungated) as a function of the
contention-management constant :math:`W_0` and the processor count
:math:`N_p`.  The ungated baseline does not depend on :math:`W_0`, so
each (workload, Np) point runs one baseline plus one gated run per
:math:`W_0` value.

All sweeps are *spec-driven*: each (workload, config) point is
re-expressed as :class:`~repro.scenarios.spec.ScenarioSpec` values
(baseline + one gated spec per :math:`W_0`) and the whole grid runs
through :func:`~repro.scenarios.runner.run_specs` as one executor
batch — parallel workers (``executor=Executor(jobs=N)``), shared
baselines deduplicated by job digest, repeat sweeps answered from an
attached :class:`~repro.exec.store.ResultStore` without re-simulating.
Passing no executor preserves the historical serial, uncached
behaviour.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..config import DEFAULT_W0_VALUES, SystemConfig
from ..exec.executor import Executor
from ..exec.jobs import ExecResult
from ..power.breakdown import average_power_reduction, energy_reduction
from ..power.model import PowerModel
from .runner import WorkloadSpec

__all__ = [
    "w0_sensitivity",
    "w0_sensitivity_grid",
    "proc_scaling",
    "DEFAULT_W0_VALUES",
]


def _as_spec(source: WorkloadSpec | str) -> WorkloadSpec:
    return WorkloadSpec(source) if isinstance(source, str) else source


def _point_metrics(baseline: ExecResult, gated: ExecResult) -> dict[str, float]:
    """The Fig. 7 per-point metrics from one baseline/gated pair."""
    return {
        "speedup": baseline.parallel_time / gated.parallel_time,
        "energy_reduction": energy_reduction(baseline.energy, gated.energy),
        "power_reduction": average_power_reduction(
            baseline.energy, gated.energy
        ),
        "n1": float(baseline.parallel_time),
        "n2": float(gated.parallel_time),
    }


def w0_sensitivity_grid(
    points: Sequence[tuple[WorkloadSpec | str, SystemConfig]],
    w0_values: tuple[int, ...] = DEFAULT_W0_VALUES,
    power_model: PowerModel | None = None,
    executor: Executor | None = None,
) -> list[dict[int, dict[str, float]]]:
    """Fig. 7 curves for many (workload, config) points in ONE batch.

    Submitting the whole grid at once is what buys parallel speed-up:
    every (baseline + per-:math:`W_0`) run of every point lands in the
    same executor batch, identical jobs (shared ungated baselines)
    collapse to one execution, and results come back grouped per point
    in submission order.
    """
    # Lazy: repro.scenarios builds on the harness; importing it here
    # (like repro.exec does for the runner) avoids a package cycle.
    from ..scenarios.runner import run_specs
    from ..scenarios.spec import ScenarioSpec

    exe = executor if executor is not None else Executor()
    model = power_model if power_model is not None else PowerModel.derive()

    specs: list[ScenarioSpec] = []
    for source, config in points:
        base = ScenarioSpec.from_workload_config(_as_spec(source), config)
        specs.append(base.with_updates(gating=False))
        specs.extend(
            base.with_updates(gating=True, w0=w0) for w0 in w0_values
        )
    results = [
        entry.result
        for entry in run_specs(specs, executor=exe, power_model=model)
    ]

    curves: list[dict[int, dict[str, float]]] = []
    stride = 1 + len(w0_values)
    for index in range(len(points)):
        block = results[index * stride : (index + 1) * stride]
        baseline, gated_runs = block[0], block[1:]
        curves.append(
            {
                w0: _point_metrics(baseline, gated)
                for w0, gated in zip(w0_values, gated_runs)
            }
        )
    return curves


def w0_sensitivity(
    source: WorkloadSpec | str,
    config: SystemConfig,
    w0_values: tuple[int, ...] = DEFAULT_W0_VALUES,
    power_model: PowerModel | None = None,
    executor: Executor | None = None,
) -> dict[int, dict[str, float]]:
    """Speed-up and energy reduction per :math:`W_0` (one Fig. 7 curve).

    Returns ``{w0: {"speedup": ..., "energy_reduction": ...,
    "power_reduction": ...}}`` for the given processor count.
    """
    return w0_sensitivity_grid(
        [(source, config)],
        w0_values=w0_values,
        power_model=power_model,
        executor=executor,
    )[0]


def proc_scaling(
    source: WorkloadSpec | str,
    base_config: SystemConfig,
    proc_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    power_model: PowerModel | None = None,
    executor: Executor | None = None,
) -> dict[int, ExecResult]:
    """Parallel-time scaling of one configuration across core counts."""
    from ..scenarios.runner import run_specs
    from ..scenarios.spec import ScenarioSpec

    spec = _as_spec(source)
    exe = executor if executor is not None else Executor()
    model = power_model if power_model is not None else PowerModel.derive()
    scenarios = [
        ScenarioSpec.from_workload_config(
            spec, dataclasses.replace(base_config, num_procs=num_procs)
        )
        for num_procs in proc_counts
    ]
    results = [
        entry.result
        for entry in run_specs(scenarios, executor=exe, power_model=model)
    ]
    return dict(zip(proc_counts, results))
