"""Parameter sweeps: the Fig. 7 sensitivity analysis and scaling studies.

Fig. 7 plots speed-up (gated vs ungated) as a function of the
contention-management constant :math:`W_0` and the processor count
:math:`N_p`.  The ungated baseline does not depend on :math:`W_0`, so
each curve runs one baseline plus one gated run per :math:`W_0` value.

Sweeps are *spec-driven*: the (workload, config) point is re-expressed
as :class:`~repro.scenarios.spec.ScenarioSpec` values and runs through
:func:`~repro.scenarios.runner.run_specs` as one executor batch —
parallel workers (``executor=Executor(jobs=N)``), repeat sweeps
answered from an attached :class:`~repro.exec.store.ResultStore`
without re-simulating.  Passing no executor runs serially, uncached.
The paper's full Fig. 7 grid is
:func:`~repro.scenarios.builtin.paper_fig7_suite`.
"""

from __future__ import annotations

import dataclasses

from ..config import DEFAULT_W0_VALUES, SystemConfig
from ..exec.executor import Executor
from ..exec.jobs import ExecResult
from ..power.model import PowerModel
from .runner import WorkloadSpec

__all__ = [
    "w0_sensitivity",
    "proc_scaling",
    "DEFAULT_W0_VALUES",
]


def _as_spec(source: WorkloadSpec | str) -> WorkloadSpec:
    return WorkloadSpec(source) if isinstance(source, str) else source


def w0_sensitivity(
    source: WorkloadSpec | str,
    config: SystemConfig,
    w0_values: tuple[int, ...] = DEFAULT_W0_VALUES,
    power_model: PowerModel | None = None,
    executor: Executor | None = None,
) -> dict[int, dict[str, float]]:
    """Speed-up and energy reduction per :math:`W_0` (one Fig. 7 curve).

    Submits one ungated baseline at ``config``'s :math:`W_0` plus one
    gated run per value, as one batch.  Returns ``{w0: {"speedup",
    "energy_reduction", "power_reduction", "n1", "n2"}}`` for the given
    processor count.
    """
    # Lazy: repro.scenarios and repro.figures build on the harness;
    # importing them here avoids a package cycle.
    from ..figures.extract import paired_comparisons
    from ..scenarios.runner import run_specs
    from ..scenarios.spec import ScenarioSpec

    base = ScenarioSpec.from_workload_config(_as_spec(source), config)
    specs = [base.with_updates(gating=False)] + [
        base.with_updates(gating=True, w0=w0) for w0 in w0_values
    ]
    results = run_specs(specs, executor=executor, power_model=power_model)
    return {
        spec.w0: {
            "speedup": point.speedup,
            "energy_reduction": point.energy_reduction,
            "power_reduction": point.power_reduction,
            "n1": float(point.n1),
            "n2": float(point.n2),
        }
        for spec, point in paired_comparisons(results)
    }


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
