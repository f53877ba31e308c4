"""Built-in named suites: the paper's figure grids and extensions, as data.

Each entry is a factory ``(scale, seed) -> ScenarioSuite`` so the same
grid can run at unit-test (``tiny``), benchmark (``small``) or
paper-approximation (``medium``) size.  ``repro suite list/describe/run``
is the CLI surface; :func:`get_suite` is the programmatic one.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..config import DEFAULT_W0_VALUES
from ..errors import WorkloadError
from ..workloads.registry import PAPER_APPS, PAPER_PROCS, STAMP_APPS
from .spec import ScenarioSpec
from .suite import ScenarioSuite, suite

__all__ = [
    "available_suites",
    "get_suite",
    "register_suite",
    "suite_help",
    "paper_eval_suite",
    "paper_fig7_suite",
]


def _base(workload: str, scale: str, seed: int, **kw: object) -> ScenarioSpec:
    return ScenarioSpec(workload=workload, scale=scale, seed=seed, **kw)


def paper_eval_suite(
    scale: str = "small",
    seed: int = 0,
    apps: Sequence[str] = PAPER_APPS,
    procs: Sequence[int] = PAPER_PROCS,
    w0: int = 8,
    cm: str = "gating-aware",
) -> ScenarioSuite:
    """The Figs. 4–6 grid: every (app × procs) point, both gating modes.

    The one definition of the paper's evaluation grid: the built-in
    ``paper-eval`` suite, the figure pipeline and ``repro evaluate``
    all expand it, so they lower to identical job batches and share one
    result store.
    """
    return suite(
        "paper-eval",
        _base(apps[0], scale, seed, threads=procs[0], w0=w0, cm=cm),
        axes={
            "workload": apps,
            "threads": procs,
            "gating": (False, True),
        },
        description=(
            "Figs. 4-6 evaluation grid: every (application x processor "
            "count) point with and without clock gating"
        ),
    )


def paper_fig7_suite(
    scale: str = "small",
    seed: int = 0,
    apps: Sequence[str] = PAPER_APPS,
    procs: Sequence[int] = PAPER_PROCS,
    w0: int = 8,
    cm: str = "gating-aware",
    w0_values: Sequence[int] = DEFAULT_W0_VALUES,
) -> ScenarioSuite:
    """The Fig. 7 grid: the evaluation matrix crossed with the W0 sweep.

    Ungated scenarios collapse onto one baseline per (app, procs) by
    job-digest normalization, and the gated runs at ``w0`` are shared
    with :func:`paper_eval_suite` when ``w0`` is in ``w0_values``.
    """
    return suite(
        "paper-fig7",
        _base(apps[0], scale, seed, threads=procs[0], w0=w0, cm=cm),
        axes={
            "workload": apps,
            "threads": procs,
            "gating": (False, True),
            "w0": w0_values,
        },
        description=(
            "Fig. 7 sensitivity grid: speed-up vs W0 and Np (ungated "
            "baselines shared across the W0 axis by job-digest dedup)"
        ),
    )


def _stamp_extended(scale: str, seed: int) -> ScenarioSuite:
    return suite(
        "stamp-extended",
        _base("genome", scale, seed, threads=8),
        axes={
            "workload": STAMP_APPS,
            "gating": (False, True),
        },
        description=(
            "all six STAMP-style kernels (the paper's three plus "
            "kmeans/vacation/labyrinth) gated vs ungated at 8 cores — "
            "the contention-profile spread from read-mostly to "
            "long-transaction worst case"
        ),
    )


def _cm_shootout(scale: str, seed: int) -> ScenarioSuite:
    return suite(
        "cm-shootout",
        _base("intruder", scale, seed),
        axes={
            "workload": ("intruder", "labyrinth"),
            "cm": ("gating-aware", "immediate", "linear", "exponential",
                   "polite", "momentum"),
            "gating": (False, True),
        },
        description=(
            "contention-manager comparison on the two highest-abort "
            "kernels, gated vs ungated"
        ),
    )


def _micro_contention(scale: str, seed: int) -> ScenarioSuite:
    return suite(
        "micro-contention",
        _base("counter", scale, seed),
        axes={
            "workload": ("counter", "bank", "array_walk", "llist"),
            "threads": (4, 8),
            "gating": (False, True),
        },
        description=(
            "microbenchmark contention ladder from zero-conflict "
            "(array_walk) to maximum (counter)"
        ),
    )


def _smoke(scale: str, seed: int) -> ScenarioSuite:
    return suite(
        "smoke",
        _base("counter", scale, seed, threads=2),
        axes={
            "gating": (False, True),
            "w0": (2, 8),
        },
        description=(
            "4 scenarios / 3 unique jobs in seconds — the CI end-to-end "
            "check that suite expansion, dedup and the result cache work"
        ),
    )


_FACTORIES: dict[str, tuple[Callable[[str, int], ScenarioSuite], str]] = {
    "paper-fig7": (paper_fig7_suite, "small"),
    "paper-eval": (paper_eval_suite, "small"),
    "stamp-extended": (_stamp_extended, "small"),
    "cm-shootout": (_cm_shootout, "small"),
    "micro-contention": (_micro_contention, "small"),
    "smoke": (_smoke, "tiny"),
}


def available_suites() -> list[str]:
    return sorted(_FACTORIES)


def register_suite(
    name: str,
    factory: Callable[[str, int], ScenarioSuite],
    default_scale: str = "small",
) -> None:
    """Register a custom named suite (overwrites allowed)."""
    if not name:
        raise WorkloadError("suite name must be non-empty")
    _FACTORIES[name] = (factory, default_scale)


def get_suite(
    name: str, scale: str | None = None, seed: int = 0
) -> ScenarioSuite:
    """Instantiate a named suite (``scale=None`` uses its default)."""
    try:
        factory, default_scale = _FACTORIES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown suite {name!r}; available: "
            f"{', '.join(available_suites())}"
        ) from None
    return factory(scale if scale is not None else default_scale, seed)


def suite_help() -> list[tuple[str, int, str]]:
    """(name, size, description) rows for every registered suite."""
    rows = []
    for name in available_suites():
        instantiated = get_suite(name)
        rows.append((name, instantiated.size, instantiated.description))
    return rows
