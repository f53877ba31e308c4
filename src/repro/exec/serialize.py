"""Exact JSON codecs for configs, energy breakdowns and exec results.

The result store persists :class:`~repro.exec.jobs.ExecResult` values
as JSON lines; a cache hit must reproduce the original numbers *bit for
bit*, so the codecs here rely only on representations that round-trip
exactly: ints, strings, booleans, and floats via ``repr`` (Python's
``json`` emits the shortest repr, and ``float(repr(x)) == x`` for every
finite float).

Also home to :func:`canonical_json`, the deterministic encoding that
:class:`~repro.exec.jobs.RunJob` digests are computed over: sorted
keys, no whitespace, and a stable ``repr`` fallback for exotic
override values.
"""

from __future__ import annotations

import json
from typing import Any

from ..config import (
    BusConfig,
    CacheConfig,
    CommitConfig,
    DirectoryConfig,
    GatingConfig,
    MemoryConfig,
    SystemConfig,
)
from ..power.breakdown import EnergyBreakdown
from ..power.model import PowerModel
from ..power.states import ProcState

__all__ = [
    "canonical_json",
    "config_to_dict",
    "config_from_dict",
    "energy_to_dict",
    "energy_from_dict",
    "result_to_dict",
    "result_from_dict",
]


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, repr fallback."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )


# ----------------------------------------------------------------------
# SystemConfig
# ----------------------------------------------------------------------
_SECTION_TYPES = {
    "cache": CacheConfig,
    "bus": BusConfig,
    "directory": DirectoryConfig,
    "memory": MemoryConfig,
    "commit": CommitConfig,
    "gating": GatingConfig,
}


def config_to_dict(config: SystemConfig) -> dict[str, Any]:
    import dataclasses

    return dataclasses.asdict(config)


def config_from_dict(data: dict[str, Any]) -> SystemConfig:
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        section = _SECTION_TYPES.get(key)
        kwargs[key] = section(**value) if section is not None else value
    return SystemConfig(**kwargs)


# ----------------------------------------------------------------------
# EnergyBreakdown
# ----------------------------------------------------------------------
def energy_to_dict(energy: EnergyBreakdown) -> dict[str, Any]:
    return {
        "window": list(energy.window),
        "num_procs": energy.num_procs,
        "gated_run": energy.gated_run,
        "total": energy.total,
        "by_state": {
            state.name: [cycles, joules]
            for state, (cycles, joules) in energy.by_state.items()
        },
        "interval_total": energy.interval_total,
    }


def energy_from_dict(data: dict[str, Any]) -> EnergyBreakdown:
    return EnergyBreakdown(
        window=(data["window"][0], data["window"][1]),
        num_procs=data["num_procs"],
        gated_run=data["gated_run"],
        total=data["total"],
        by_state={
            ProcState[name]: (cycles, joules)
            for name, (cycles, joules) in data["by_state"].items()
        },
        interval_total=data["interval_total"],
    )


# ----------------------------------------------------------------------
# ExecResult
# ----------------------------------------------------------------------
def result_to_dict(result: "Any") -> dict[str, Any]:
    """Encode an :class:`~repro.exec.jobs.ExecResult` as plain data."""
    import dataclasses

    return {
        "workload": result.workload,
        "scale": result.scale,
        "config": config_to_dict(result.config),
        "power": dataclasses.asdict(result.power),
        "end_cycle": result.end_cycle,
        "parallel_start": result.parallel_start,
        "parallel_end": result.parallel_end,
        "energy": energy_to_dict(result.energy),
        "counters": dict(result.counters),
    }


def result_from_dict(data: dict[str, Any]) -> "Any":
    from .jobs import ExecResult  # local: jobs imports this module

    return ExecResult(
        workload=data["workload"],
        scale=data["scale"],
        config=config_from_dict(data["config"]),
        power=PowerModel(**data["power"]),
        end_cycle=data["end_cycle"],
        parallel_start=data["parallel_start"],
        parallel_end=data["parallel_end"],
        energy=energy_from_dict(data["energy"]),
        counters={str(k): int(v) for k, v in data["counters"].items()},
    )
