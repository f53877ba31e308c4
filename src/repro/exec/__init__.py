"""Parallel experiment execution with content-addressed result caching.

``repro.exec`` turns the paper's evaluation grids — workload × config ×
:math:`W_0` × processor count, Figs. 3–7 — from a serial loop into a
batch of independent, deduplicated, cacheable jobs:

* :mod:`~repro.exec.jobs` — :class:`RunJob`, a picklable, hashable run
  request with a stable SHA-256 content digest, and :class:`ExecResult`,
  the condensed process-boundary result.
* :mod:`~repro.exec.executor` — :class:`Executor`, serial or
  ``ProcessPoolExecutor``-backed fan-out with in-batch dedup and
  deterministic result ordering; :class:`BatchReport` totals.
* :mod:`~repro.exec.store` — :class:`ResultStore`, a digest-keyed
  on-disk cache with tombstone invalidation, backed by a pluggable
  :mod:`~repro.exec.backends` layer (advisory-locked JSON lines, or
  SQLite in WAL mode for many concurrent writer processes).
* :mod:`~repro.exec.progress` — per-job status and wall-clock/speed-up
  reporting.

Quickstart::

    from repro import SystemConfig
    from repro.exec import Executor, ResultStore, RunJob
    from repro.harness.runner import workload

    exe = Executor(jobs=4, store=ResultStore(".repro-cache"))
    spec = workload("intruder", scale="small")
    jobs = [RunJob(spec, SystemConfig(num_procs=p)) for p in (4, 8, 16)]
    results = exe.run(jobs)           # parallel, cached, in order
    print(exe.last_report.summary())

The harness layers (:mod:`repro.harness.sweep`,
:mod:`repro.harness.compare`, :mod:`repro.harness.experiments`) accept
an ``executor=`` argument and submit through this subsystem; the CLI
exposes it as ``--jobs N``, ``--cache-dir PATH``, ``--no-cache`` and
the ``exec-status`` subcommand.
"""

from __future__ import annotations

from typing import Any

from .. import _lazy

__all__ = [
    "RunJob",
    "ExecResult",
    "execute_job",
    "SCHEMA_VERSION",
    "Executor",
    "BatchReport",
    "BatchExecutionError",
    "JobFailure",
    "ResultStore",
    "StoreStats",
    "PruneReport",
    "StoreBackend",
    "JsonlBackend",
    "SqliteBackend",
    "BACKENDS",
    "BACKEND_CHOICES",
    "create_backend",
    "detect_backend",
    "ProgressListener",
    "NullProgress",
    "ConsoleProgress",
]

_EXPORTS: _lazy.Exports = {
    ".backends": (
        "BACKEND_CHOICES", "BACKENDS", "JsonlBackend", "SqliteBackend",
        "StoreBackend", "create_backend", "detect_backend",
    ),
    ".executor": (
        "BatchExecutionError", "BatchReport", "Executor", "JobFailure",
    ),
    ".jobs": ("SCHEMA_VERSION", "ExecResult", "RunJob", "execute_job"),
    ".progress": ("ConsoleProgress", "NullProgress", "ProgressListener"),
    ".store": ("PruneReport", "ResultStore", "StoreStats"),
}


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)


def __dir__() -> list[str]:
    return _lazy.names(__name__, _EXPORTS)
