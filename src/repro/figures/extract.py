"""Metric extractors: store records in, figure data out — pure functions.

An *extractor* turns the simulation results a figure's scenario suite
produced into the plain-JSON data the figure plots.  Extractors never
simulate and never touch the filesystem: the
:class:`~repro.figures.builder.FigureBuilder` resolves every expanded
scenario against the result store and hands the paired
:class:`~repro.scenarios.runner.ScenarioResult` list in here, so the
same extractor serves a live build, a golden-fixture test, and a store
merged from many shard hosts identically.

This module is also the single home of the row derivations the paper's
figures need — the gated/ungated pairing, the Fig. 4–6 row shapes, the
Fig. 7 speed-up matrix, and the Section VIII headline averages.
``repro evaluate``, :func:`~repro.harness.sweep.w0_sensitivity`, the
benchmark modules and :meth:`~repro.scenarios.runner.SuiteRun.
paired_rows` all delegate here instead of keeping private copies.

Versioning: every registered extractor carries an integer version that
enters the figure content digest — bump it when an extractor's output
changes meaning, and every downstream artifact goes stale at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ..errors import FigureError
from ..harness.compare import GatingComparison
from ..power.model import PowerModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.runner import ScenarioResult
    from ..scenarios.spec import ScenarioSpec
    from .spec import FigureParams

__all__ = [
    "ExtractionContext",
    "available_extractors",
    "register_extractor",
    "get_extractor",
    "extractor_version",
    "pair_results",
    "paired_comparisons",
    "comparisons_from_results",
    "fig4_rows",
    "fig5_rows",
    "fig6_rows",
    "fig7_speedup_matrix",
    "headline_from_comparisons",
]


# ----------------------------------------------------------------------
# extraction context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExtractionContext:
    """Everything an extractor may read: grid parameters + store results.

    ``results`` holds one entry per *expanded* scenario of the figure's
    suite, in expansion order, each paired with the
    :class:`~repro.exec.jobs.ExecResult` the store answered for its job
    digest.  Analytic figures (Fig. 3, Tables I–II) receive an empty
    tuple and derive everything from ``params`` and ``power``.
    """

    params: "FigureParams"
    power: PowerModel = field(default_factory=PowerModel.derive)
    results: tuple["ScenarioResult", ...] = ()

    @property
    def apps(self) -> tuple[str, ...]:
        return self.params.apps

    @property
    def procs(self) -> tuple[int, ...]:
        return self.params.procs

    @property
    def w0_values(self) -> tuple[int, ...]:
        return self.params.w0_values


# ----------------------------------------------------------------------
# extractor registry
# ----------------------------------------------------------------------
_EXTRACTORS: dict[str, tuple[Callable[[ExtractionContext], Any], int]] = {}


def register_extractor(
    name: str, version: int = 1
) -> Callable[[Callable[[ExtractionContext], Any]], Callable[[ExtractionContext], Any]]:
    """Register ``fn(ctx) -> JSON-able data`` under *name* (decorator)."""

    def decorate(
        fn: Callable[[ExtractionContext], Any]
    ) -> Callable[[ExtractionContext], Any]:
        _EXTRACTORS[name] = (fn, version)
        return fn

    return decorate


def available_extractors() -> list[str]:
    return sorted(_EXTRACTORS)


def get_extractor(name: str) -> Callable[[ExtractionContext], Any]:
    try:
        return _EXTRACTORS[name][0]
    except KeyError:
        raise FigureError(
            f"unknown extractor {name!r}; available: "
            f"{', '.join(available_extractors())}"
        ) from None


def extractor_version(name: str) -> int:
    get_extractor(name)  # raises the shared error on unknown names
    return _EXTRACTORS[name][1]


# ----------------------------------------------------------------------
# shared row derivations (the former private duplicates)
# ----------------------------------------------------------------------
def _pair_key(spec: "ScenarioSpec", with_w0: bool) -> tuple[Any, ...]:
    return (
        spec.workload,
        spec.scale,
        spec.threads,
        spec.seed,
        spec.params,
        spec.cm,
        spec.system,
        spec.w0 if with_w0 else None,
    )


def pair_results(
    results: Sequence["ScenarioResult"],
) -> list[tuple["ScenarioResult", "ScenarioResult"]]:
    """(gated, ungated-baseline) pairs from a mixed result list.

    A gated scenario pairs with the ungated scenario identical in every
    other spec field — same :math:`W_0` point first, any :math:`W_0`
    otherwise (ungated runs do not depend on :math:`W_0` for the CMs
    that declare so).  Gated scenarios without a baseline are dropped.
    """
    ungated: dict[tuple, "ScenarioResult"] = {}
    for entry in results:
        if not entry.spec.gating:
            ungated[_pair_key(entry.spec, with_w0=True)] = entry
            ungated.setdefault(_pair_key(entry.spec, with_w0=False), entry)
    pairs = []
    for entry in results:
        if not entry.spec.gating:
            continue
        baseline = ungated.get(
            _pair_key(entry.spec, with_w0=True)
        ) or ungated.get(_pair_key(entry.spec, with_w0=False))
        if baseline is not None:
            pairs.append((entry, baseline))
    return pairs


def paired_comparisons(
    results: Sequence["ScenarioResult"],
) -> list[tuple["ScenarioSpec", GatingComparison]]:
    """(gated spec, :class:`GatingComparison`) per :func:`pair_results`
    pair — the paper's three metrics for every gated scenario."""
    return [
        (
            gated.spec,
            GatingComparison(
                workload=gated.spec.workload,
                num_procs=gated.spec.threads,
                ungated=baseline.result,
                gated=gated.result,
            ),
        )
        for gated, baseline in pair_results(results)
    ]


def comparisons_from_results(
    results: Sequence["ScenarioResult"],
) -> dict[tuple[str, int], GatingComparison]:
    """``{(workload, threads): GatingComparison}`` from an eval grid.

    Expects one gated/ungated pair per (workload, threads) point — the
    Figs. 4–6 grid shape.  Extra :math:`W_0` points would silently
    overwrite each other, so duplicates raise.
    """
    comparisons: dict[tuple[str, int], GatingComparison] = {}
    for spec, comparison in paired_comparisons(results):
        key = (spec.workload, spec.threads)
        if key in comparisons:
            raise FigureError(
                f"multiple gated runs for evaluation point {key}; "
                f"use fig7_speedup_matrix for W0 sweeps"
            )
        comparisons[key] = comparison
    return comparisons


def _comparison(
    comparisons: Mapping[tuple[str, int], GatingComparison],
    app: str,
    procs: int,
) -> GatingComparison:
    try:
        return comparisons[(app, procs)]
    except KeyError:
        raise FigureError(
            f"evaluation grid is missing the ({app}, {procs} procs) point"
        ) from None


def fig4_rows(
    comparisons: Mapping[tuple[str, int], GatingComparison],
    apps: Sequence[str],
    procs: Sequence[int],
) -> list[tuple]:
    """(app, procs, N1, N2, speed-up) — Fig. 4's bar pairs."""
    return [
        (app, p, c.n1, c.n2, c.speedup)
        for app in apps
        for p in procs
        for c in (_comparison(comparisons, app, p),)
    ]


def fig5_rows(
    comparisons: Mapping[tuple[str, int], GatingComparison],
    apps: Sequence[str],
    procs: Sequence[int],
) -> list[tuple]:
    """(app, procs, Eug, Eg, reduction factor) — Fig. 5."""
    return [
        (app, p, c.ungated.energy.total, c.gated.energy.total,
         c.energy_reduction)
        for app in apps
        for p in procs
        for c in (_comparison(comparisons, app, p),)
    ]


def fig6_rows(
    comparisons: Mapping[tuple[str, int], GatingComparison],
    apps: Sequence[str],
    procs: Sequence[int],
) -> list[tuple]:
    """(app, procs, avg power ungated, gated, reduction) — Fig. 6."""
    return [
        (app, p, c.ungated.energy.average_power,
         c.gated.energy.average_power, c.power_reduction)
        for app in apps
        for p in procs
        for c in (_comparison(comparisons, app, p),)
    ]


def fig7_speedup_matrix(
    results: Sequence["ScenarioResult"],
    apps: Sequence[str],
    procs: Sequence[int],
    w0_values: Sequence[int],
) -> dict[str, dict[int, dict[int, float]]]:
    """``{app: {num_procs: {w0: speed-up}}}`` — Fig. 7, from suite results."""
    speedups = {
        (spec.workload, spec.threads, spec.w0): comparison.speedup
        for spec, comparison in paired_comparisons(results)
    }
    matrix: dict[str, dict[int, dict[int, float]]] = {}
    for app in apps:
        matrix[app] = {}
        for p in procs:
            curve = {}
            for w0 in w0_values:
                try:
                    curve[w0] = speedups[(app, p, w0)]
                except KeyError:
                    raise FigureError(
                        f"W0 grid is missing the ({app}, {p} procs, "
                        f"W0={w0}) point"
                    ) from None
            matrix[app][p] = curve
    return matrix


def headline_from_comparisons(
    comparisons: Mapping[tuple[str, int], GatingComparison],
    apps: Sequence[str],
    procs: Sequence[int],
) -> dict[str, float]:
    """Section VIII averages over the evaluation grid.

    The paper reports the averages as percentages: a reduction factor
    ``f`` maps to a percentage as ``1 - 1/f`` (energy/power) and
    ``f - 1`` (speed-up).
    """
    points = [
        _comparison(comparisons, app, p) for app in apps for p in procs
    ]
    n = len(points)
    if n == 0:
        raise FigureError("headline averages need at least one grid point")
    avg_speedup = sum(c.speedup for c in points) / n
    avg_energy = sum(c.energy_reduction for c in points) / n
    avg_power = sum(c.power_reduction for c in points) / n
    return {
        "average_speedup_factor": avg_speedup,
        "average_speedup_pct": (avg_speedup - 1.0) * 100.0,
        "average_energy_reduction_factor": avg_energy,
        "average_energy_reduction_pct": (1.0 - 1.0 / avg_energy) * 100.0,
        "average_power_reduction_factor": avg_power,
        "average_power_reduction_pct": (1.0 - 1.0 / avg_power) * 100.0,
        "points": float(n),
    }


# ----------------------------------------------------------------------
# the registered paper extractors
# ----------------------------------------------------------------------
def _rows_data(headers: Sequence[str], rows: Sequence[tuple]) -> dict[str, Any]:
    return {"headers": list(headers), "rows": [list(row) for row in rows]}


@register_extractor("fig3-cache-power", version=1)
def extract_fig3(ctx: ExtractionContext) -> dict[str, Any]:
    """Normalized TCC data-cache power vs RW-bit resolution (analytic)."""
    from ..power.cacti import (
        FIG3_CACHE_SIZES_KB,
        FIG3_GRANULARITIES,
        tcc_cache_power_curve,
        tcc_total_power_factor,
    )

    return {
        "cache_sizes_kb": list(FIG3_CACHE_SIZES_KB),
        "granularities_bytes": list(FIG3_GRANULARITIES),
        "normalized_power": {
            str(size): {
                str(granularity): power
                for granularity, power in tcc_cache_power_curve(size)
            }
            for size in FIG3_CACHE_SIZES_KB
        },
        "total_power_factor": tcc_total_power_factor(),
    }


@register_extractor("fig4-execution-time", version=1)
def extract_fig4(ctx: ExtractionContext) -> dict[str, Any]:
    comparisons = comparisons_from_results(ctx.results)
    return _rows_data(
        ("app", "procs", "n1_ungated", "n2_gated", "speedup"),
        fig4_rows(comparisons, ctx.apps, ctx.procs),
    )


@register_extractor("fig5-energy", version=1)
def extract_fig5(ctx: ExtractionContext) -> dict[str, Any]:
    comparisons = comparisons_from_results(ctx.results)
    return _rows_data(
        ("app", "procs", "energy_ungated", "energy_gated",
         "reduction_factor"),
        fig5_rows(comparisons, ctx.apps, ctx.procs),
    )


@register_extractor("fig6-average-power", version=1)
def extract_fig6(ctx: ExtractionContext) -> dict[str, Any]:
    comparisons = comparisons_from_results(ctx.results)
    return _rows_data(
        ("app", "procs", "avg_power_ungated", "avg_power_gated",
         "reduction_factor"),
        fig6_rows(comparisons, ctx.apps, ctx.procs),
    )


@register_extractor("fig7-w0-sensitivity", version=1)
def extract_fig7(ctx: ExtractionContext) -> dict[str, Any]:
    matrix = fig7_speedup_matrix(
        ctx.results, ctx.apps, ctx.procs, ctx.w0_values
    )
    return {
        "apps": list(ctx.apps),
        "procs": list(ctx.procs),
        "w0_values": list(ctx.w0_values),
        "speedup": {
            app: {
                str(p): {str(w0): value for w0, value in curve.items()}
                for p, curve in by_procs.items()
            }
            for app, by_procs in matrix.items()
        },
    }


@register_extractor("table1-power-model", version=1)
def extract_table1(ctx: ExtractionContext) -> dict[str, Any]:
    return _rows_data(("operation", "power_factor"), ctx.power.table1_rows())


@register_extractor("table2-system-config", version=1)
def extract_table2(ctx: ExtractionContext) -> dict[str, Any]:
    return _rows_data(
        ("feature", "description"),
        ctx.params.system_config().table2_rows(),
    )


@register_extractor("headline-averages", version=1)
def extract_headline(ctx: ExtractionContext) -> dict[str, Any]:
    comparisons = comparisons_from_results(ctx.results)
    return headline_from_comparisons(comparisons, ctx.apps, ctx.procs)
