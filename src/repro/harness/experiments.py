"""The paper's full evaluation (Section VIII) as one reusable suite.

:class:`EvaluationSuite` lazily runs each (application × processor
count) comparison once and derives every figure from the cached runs —
exactly the data-sharing structure of the paper, where Figs. 4, 5 and 6
all come from the same simulations:

* Fig. 4 — total parallel execution time, with/without gating, speed-up
  annotated (``fig4_rows``).
* Fig. 5 — energy consumption, reduction factor annotated
  (``fig5_rows``).
* Fig. 6 — average power dissipation (``fig6_rows``).
* Fig. 7 — speed-up vs :math:`W_0` and :math:`N_p` (``fig7_matrix``).
* Fig. 3 — TCC data-cache power vs RW-bit resolution (``fig3_curves``;
  analytic, no simulation).
* Table I — power factors (``table1_rows``); Table II — system
  parameters (``table2_rows``).
* §VIII headline averages — ``headline()``.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..config import DEFAULT_W0_VALUES, GatingConfig, SystemConfig
from ..exec.executor import Executor
from ..power.cacti import FIG3_CACHE_SIZES_KB, tcc_cache_power_curve
from ..power.model import PowerModel
from ..workloads.registry import PAPER_APPS
from .compare import GatingComparison, compare_gating
from .runner import WorkloadSpec
from .sweep import w0_sensitivity_grid

__all__ = ["EvaluationSuite"]


class EvaluationSuite:
    """Runs and caches the paper's evaluation grid.

    The grid itself is declarative: :meth:`scenario_suite` exposes the
    Fig. 4–6 matrix as a :class:`~repro.scenarios.suite.ScenarioSuite`
    (the same object behind ``repro suite run --suite paper-eval``) and
    :meth:`run_all` executes its expansion.  With an ``executor``,
    whole figure grids are submitted as one job batch through
    :mod:`repro.exec` — fanning across worker processes, sharing the
    ungated baselines between the Fig. 4–6 comparisons and the Fig. 7
    sweeps via content-digest dedup, and answering repeat evaluations
    from the executor's result store.
    """

    def __init__(
        self,
        scale: str = "small",
        seed: int = 0,
        procs: Sequence[int] = (4, 8, 16),
        apps: Sequence[str] = PAPER_APPS,
        w0: int = 8,
        base_config: SystemConfig | None = None,
        executor: Executor | None = None,
    ):
        self.scale = scale
        self.seed = seed
        self.procs = tuple(procs)
        self.apps = tuple(apps)
        self.w0 = w0
        self._base = base_config if base_config is not None else SystemConfig()
        self._model = PowerModel.derive()
        self._exec = executor if executor is not None else Executor()
        self._comparisons: dict[tuple[str, int], GatingComparison] = {}
        self._w0_curves: dict[tuple[str, int], dict[int, dict[str, float]]] = {}

    # ------------------------------------------------------------------
    def _config(self, num_procs: int) -> SystemConfig:
        return dataclasses.replace(
            self._base,
            num_procs=num_procs,
            num_dirs=None,
            seed=self.seed,
            gating=GatingConfig(enabled=True, w0=self.w0),
        )

    def _spec(self, app: str) -> WorkloadSpec:
        return WorkloadSpec(app, scale=self.scale, seed=self.seed)

    def comparison(self, app: str, num_procs: int) -> GatingComparison:
        """The cached gated/ungated pair for one evaluation point."""
        key = (app, num_procs)
        if key not in self._comparisons:
            self._comparisons[key] = compare_gating(
                self._spec(app),
                self._config(num_procs),
                power_model=self._model,
                executor=self._exec,
            )
        return self._comparisons[key]

    def scenario_suite(self):
        """The Figs. 4–6 grid as a declarative scenario suite.

        Axis order (workload, threads, gating) matches :meth:`run_all`'s
        historical submission order, so the expanded grid lowers to the
        same job batch.
        """
        from ..scenarios.spec import ScenarioSpec
        from ..scenarios.suite import suite

        base = ScenarioSpec.from_workload_config(
            self._spec(self.apps[0]), self._config(self.procs[0])
        )
        return suite(
            "paper-eval",
            base,
            axes={
                "workload": self.apps,
                "threads": self.procs,
                "gating": (False, True),
            },
            description="Figs. 4-6: every evaluation point, both gating modes",
        )

    def plan(self, store) -> "object":
        """Cache coverage of the Figs. 4–6 grid, without simulating.

        Probes *store* (a :class:`~repro.exec.store.ResultStore`, any
        backend) per unique job digest and returns the
        :class:`~repro.scenarios.runner.SuitePlan` — the cache-aware
        entry point for regenerating figures incrementally: dispatch
        ``plan.residual_suite()`` first, then :meth:`run_all` is pure
        cache hits.
        """
        from ..scenarios.runner import plan_suite

        return plan_suite(
            self.scenario_suite(), store=store, power_model=self._model
        )

    def run_all(self) -> None:
        """Force-run the whole grid as ONE executor batch.

        The grid comes from :meth:`scenario_suite`; submitting every
        (app × procs × gating) scenario together lets the executor fan
        the expansion across its workers and deduplicate any shared
        runs.  Results land in the same per-point comparison cache that
        :meth:`comparison` fills lazily.
        """
        from ..scenarios.runner import run_specs

        missing = {
            (app, num_procs)
            for app in self.apps
            for num_procs in self.procs
            if (app, num_procs) not in self._comparisons
        }
        if not missing:
            return
        specs = [
            spec
            for spec in self.scenario_suite().expand()
            if (spec.workload, spec.threads) in missing
        ]
        from ..figures.extract import comparisons_from_results

        results = run_specs(
            specs, executor=self._exec, power_model=self._model
        )
        self._comparisons.update(comparisons_from_results(results))

    def _comparison_grid(self) -> dict[tuple[str, int], GatingComparison]:
        """Every (app, procs) comparison, lazily filled, as one mapping."""
        return {
            (app, num_procs): self.comparison(app, num_procs)
            for app in self.apps
            for num_procs in self.procs
        }

    # ------------------------------------------------------------------
    # figures — row derivations shared with repro.figures.extract
    # ------------------------------------------------------------------
    def fig4_rows(self) -> list[tuple]:
        """(app, procs, N1, N2, speed-up) — Fig. 4's bar pairs."""
        from ..figures.extract import fig4_rows

        return fig4_rows(self._comparison_grid(), self.apps, self.procs)

    def fig5_rows(self) -> list[tuple]:
        """(app, procs, Eug, Eg, reduction factor) — Fig. 5."""
        from ..figures.extract import fig5_rows

        return fig5_rows(self._comparison_grid(), self.apps, self.procs)

    def fig6_rows(self) -> list[tuple]:
        """(app, procs, avg power ungated, gated, reduction) — Fig. 6."""
        from ..figures.extract import fig6_rows

        return fig6_rows(self._comparison_grid(), self.apps, self.procs)

    def fig7_matrix(
        self, w0_values: tuple[int, ...] = DEFAULT_W0_VALUES
    ) -> dict[str, dict[int, dict[int, float]]]:
        """``{app: {num_procs: {w0: speed-up}}}`` — Fig. 7."""
        # Resolve every missing curve in one executor batch; cached
        # curves are reused unless they lack a requested W0 value.
        missing = [
            (app, num_procs)
            for app in self.apps
            for num_procs in self.procs
            if not set(w0_values)
            <= set(self._w0_curves.get((app, num_procs), {}))
        ]
        if missing:
            curves = w0_sensitivity_grid(
                [
                    (self._spec(app), self._config(num_procs))
                    for app, num_procs in missing
                ],
                w0_values=w0_values,
                power_model=self._model,
                executor=self._exec,
            )
            for key, curve in zip(missing, curves):
                self._w0_curves.setdefault(key, {}).update(curve)

        out: dict[str, dict[int, dict[int, float]]] = {}
        for app in self.apps:
            out[app] = {}
            for num_procs in self.procs:
                curve = self._w0_curves[(app, num_procs)]
                out[app][num_procs] = {
                    w0: curve[w0]["speedup"] for w0 in w0_values
                }
        return out

    @staticmethod
    def fig3_curves(
        sizes_kb: tuple[int, ...] = FIG3_CACHE_SIZES_KB,
    ) -> dict[int, list[tuple[int, float]]]:
        """``{cache KB: [(granularity bytes, normalized power)]}`` — Fig. 3."""
        return {size: tcc_cache_power_curve(size) for size in sizes_kb}

    # ------------------------------------------------------------------
    # tables and headline numbers
    # ------------------------------------------------------------------
    def table1_rows(self) -> list[tuple[str, float]]:
        return self._model.table1_rows()

    def table2_rows(self, num_procs: int = 16) -> list[tuple[str, str]]:
        return self._config(num_procs).table2_rows()

    def headline(self) -> dict[str, float]:
        """Section VIII averages over the full grid.

        The paper reports the averages as percentages: "average
        speed-up of 4%", "average reduction in the energy consumption
        is 19%", "reduction in the average power dissipation is 13%".
        """
        from ..figures.extract import headline_from_comparisons

        return headline_from_comparisons(
            self._comparison_grid(), self.apps, self.procs
        )
