"""Name-based workload construction with typed parameter schemas.

The harness and benchmarks refer to workloads by name; the registry
maps names to builder functions.  Builders accept
``(num_threads, scale, seed, **overrides)`` and return a
:class:`~repro.workloads.base.WorkloadInstance`.

Every registration carries a :class:`~repro.workloads.schema.WorkloadSchema`
describing the builder's override parameters (names, scalar types,
fixed or per-scale defaults).  :func:`build_workload` validates
overrides against the schema *before* calling the builder, so an
unknown or mistyped parameter raises :class:`~repro.errors.WorkloadError`
listing the valid parameters — which is what lets the scenario layer
(:mod:`repro.scenarios`) validate and serialize whole evaluation
matrices without running a single simulation.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable

from ..errors import WorkloadError
from .catalog import (
    ARRAY_WALK_SCHEMA,
    BANK_SCHEMA,
    COUNTER_SCHEMA,
    GENOME_SCHEMA,
    INTRUDER_SCHEMA,
    KMEANS_SCHEMA,
    LABYRINTH_SCHEMA,
    LLIST_SCHEMA,
    VACATION_SCHEMA,
    YADA_SCHEMA,
)
from .schema import WorkloadSchema

if TYPE_CHECKING:  # builders import numpy; the registry does not
    from .base import WorkloadInstance

__all__ = [
    "available_workloads",
    "build_workload",
    "register_workload",
    "workload_builder",
    "workload_schema",
    "workload_seed_invariant",
]

Builder = Callable[..., "WorkloadInstance"]

#: name -> (builder, schema, seed_invariant); one dict so they can
#: never drift apart.  A built-in's builder is first the name of its
#: module, imported by the first build (builders import numpy and the
#: HTM program layer; schemas do not).
_REGISTRY: dict[str, tuple[Builder | str, WorkloadSchema, bool]] = {}

#: the paper's evaluation applications, in its presentation order
PAPER_APPS: tuple[str, ...] = ("genome", "yada", "intruder")

#: the paper's evaluation processor counts (Figs. 4-7)
PAPER_PROCS: tuple[int, ...] = (4, 8, 16)

#: every STAMP-style application kernel (the paper's three plus the
#: extended contention profiles added on top of the scenario layer)
STAMP_APPS: tuple[str, ...] = (
    "genome", "yada", "intruder", "kmeans", "vacation", "labyrinth",
)

__all__ += ["PAPER_APPS", "PAPER_PROCS", "STAMP_APPS"]


def available_workloads() -> list[str]:
    return sorted(_REGISTRY)


def _lookup(name: str) -> tuple[Builder | str, WorkloadSchema, bool]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; available: "
            f"{', '.join(available_workloads())}"
        ) from None


def register_workload(
    name: str,
    builder: Builder,
    schema: WorkloadSchema | None = None,
    seed_invariant: bool = False,
) -> None:
    """Add a custom workload (overwrites allowed).

    Without an explicit ``schema``, one is derived from the builder's
    keyword parameters (:meth:`WorkloadSchema.from_builder`) so unknown
    override keys are still rejected by name.

    ``seed_invariant`` declares that the builder's output does not
    depend on ``seed`` beyond stamping ``WorkloadInstance.seed`` — no
    build-time RNG draw and no program closure capturing the seed.  The
    replicate-pack prep cache shares one build across a whole seed
    family for such workloads (re-stamped per member), so a wrong
    ``True`` here silently collapses seeds; leave it ``False`` unless
    the builder provably never reads ``seed``.
    """
    if not name:
        raise WorkloadError("workload name must be non-empty")
    if schema is None:
        schema = WorkloadSchema.from_builder(name, builder)
    elif schema.workload != name:
        raise WorkloadError(
            f"schema is for {schema.workload!r}, registered as {name!r}"
        )
    _REGISTRY[name] = (builder, schema, seed_invariant)


def workload_schema(name: str) -> WorkloadSchema:
    """The parameter schema of the named workload."""
    return _lookup(name)[1]


def workload_builder(name: str) -> Builder:
    """The named workload's builder; a built-in's module is imported
    here, on first use."""
    builder = _lookup(name)[0]
    if isinstance(builder, str):  # a built-in: its module holds build_<name>
        builder = getattr(importlib.import_module(builder, __package__),
                          f"build_{name}")
    return builder


def workload_seed_invariant(name: str) -> bool:
    """Whether the named workload's build ignores the seed (see
    :func:`register_workload`)."""
    return _lookup(name)[2]


def build_workload(
    name: str,
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    **overrides,
) -> WorkloadInstance:
    """Build the named workload, validating overrides against its schema."""
    overrides = workload_schema(name).validate(overrides)
    return workload_builder(name)(
        num_threads, scale=scale, seed=seed, **overrides
    )


# seed_invariant=True only for builders that provably never read `seed`:
# counter and array_walk touch it solely to stamp the instance (their
# programs are deterministic in (threads, scale) alone).  Every other
# builder draws build-time RNG or closes over the seed at run time.
for _name, _module, _schema, _seedless in (
    ("genome", ".genome", GENOME_SCHEMA, False),
    ("yada", ".yada", YADA_SCHEMA, False),
    ("intruder", ".intruder", INTRUDER_SCHEMA, False),
    ("kmeans", ".kmeans", KMEANS_SCHEMA, False),
    ("vacation", ".vacation", VACATION_SCHEMA, False),
    ("labyrinth", ".labyrinth", LABYRINTH_SCHEMA, False),
    ("counter", ".micro", COUNTER_SCHEMA, True),
    ("bank", ".micro", BANK_SCHEMA, False),
    ("array_walk", ".micro", ARRAY_WALK_SCHEMA, True),
    ("llist", ".micro", LLIST_SCHEMA, False),
):
    _REGISTRY[_name] = (_module, _schema, _seedless)
del _name, _module, _schema, _seedless
