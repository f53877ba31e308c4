"""Output checks and exact-count aggregation for the perfbench runs.

Every check lands in a :class:`Tally`; ``failed_frac`` is the tally's
failed share.  A job counts as attempted once per spawn that should have
produced it, and as failed when the spawn exited non-zero or its result
is missing from the store.  Each output check (fingerprint match,
artifact bytes, golden rebuild, zero residual sims) counts as one more
attempt and, when it does not hold, one more failure.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

_BATCH_RE = re.compile(
    r"executed (?P<executed>\d+) of (?P<total>\d+) submitted .*? on "
    r"(?P<workers>\d+) worker\(s\) in (?P<wall>[0-9.]+)s"
    r"(?: \(serial-equivalent (?P<run>[0-9.]+)s)?"
)


@dataclass
class Tally:
    """Attempts and failures of one benchmark run, with failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def jobs(self, expected: int, landed: int, exit_code: int, what: str) -> None:
        """Account one spawn that should land ``expected`` job results."""
        self.attempted += expected
        missing = max(expected - landed, 0)
        if exit_code != 0 and missing == 0:
            missing = max(expected, 1)
        self.failed += missing
        if missing:
            self.notes.append(
                f"{what}: exit {exit_code}, {landed} of {expected} results landed"
            )

    def check(self, ok: bool, what: str) -> bool:
        """Account one output check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def parse_batch_summary(stderr: str) -> dict[str, float] | None:
    """The executor's ``BatchReport.summary()`` line, as numbers."""
    match = _BATCH_RE.search(stderr)
    if match is None:
        return None
    out = {
        key: float(match.group(key))
        for key in ("executed", "total", "workers", "wall")
    }
    out["run"] = float(match.group("run") or 0.0)
    return out


def store_records(store_dir: Path) -> list[dict[str, Any]]:
    """Every live record of a result store (any backend), digest-sorted."""
    from repro.exec.store import ResultStore

    store = ResultStore(store_dir)
    try:
        return sorted(store.records(), key=lambda record: record["digest"])
    finally:
        store.close()


def fingerprint(records: Iterable[dict[str, Any]]) -> str:
    """SHA-256 over the canonical (digest, result) pairs of a store.

    Write timestamps and labels are left out: two stores holding the
    same results for the same job digests have the same fingerprint.
    """
    from repro.exec.serialize import canonical_json

    digest = hashlib.sha256()
    for record in sorted(records, key=lambda record: record["digest"]):
        digest.update(record["digest"].encode())
        digest.update(canonical_json(record["result"]).encode())
    return digest.hexdigest()


def normalized_artifact(path: Path) -> bytes:
    """A figure artifact's bytes with ``provenance.git_sha`` nulled.

    Uses the layout of the committed goldens (sorted keys, two-space
    indent, trailing newline), so the result compares byte for byte
    with ``tests/data/figures_golden``.
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["provenance"]["git_sha"] = None
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def artifact_set(out_dir: Path) -> dict[str, bytes]:
    """Normalized bytes of every ``*.json`` artifact in a directory."""
    return {
        path.name: normalized_artifact(path)
        for path in sorted(out_dir.glob("*.json"))
    }


def golden_matches(out_dir: Path, golden_dir: Path) -> bool:
    """Do the built artifacts equal the committed goldens byte for byte?"""
    golden = {
        path.name: path.read_bytes() for path in sorted(golden_dir.glob("*.json"))
    }
    return bool(golden) and artifact_set(out_dir) == golden


def _pair_key(result: dict[str, Any]) -> tuple[Any, ...]:
    config = result["config"]
    return (result["workload"], result["scale"], config["num_procs"],
            config["seed"])


def exact_counts(records: list[dict[str, Any]]) -> dict[str, float]:
    """Simulated counts summed over a workload's store records.

    These are properties of the simulated machine, not of the host, so
    they repeat exactly for one seed and must not move under a change
    that only speeds up the simulator.
    """
    totals: dict[str, float] = {
        "sim.parallel_cycles": 0, "tx.attempts": 0, "tx.commits": 0,
        "tx.wasted_cycles": 0, "gating.gated": 0, "bus.messages": 0,
        "memory.accesses": 0, "dir.lines_committed": 0,
        "power.energy_total": 0.0,
    }
    hits = misses = 0
    ungated: dict[tuple[Any, ...], float] = {}
    gated: list[tuple[tuple[Any, ...], float]] = []
    for record in records:
        result = record["result"]
        counters = result["counters"]
        totals["sim.parallel_cycles"] += (
            result["parallel_end"] - result["parallel_start"]
        )
        for name in ("tx.attempts", "tx.commits", "tx.wasted_cycles",
                     "gating.gated", "bus.messages", "memory.accesses"):
            totals[name] += counters.get(name, 0)
        for name, value in counters.items():
            if name.startswith("dir") and name.endswith(".lines_committed"):
                totals["dir.lines_committed"] += value
            elif name.endswith(".cache.hits"):
                hits += value
            elif name.endswith(".cache.misses"):
                misses += value
        energy = result["energy"]["total"]
        totals["power.energy_total"] += energy
        if result["config"]["gating"]["enabled"]:
            gated.append((_pair_key(result), energy))
        else:
            ungated[_pair_key(result)] = energy
    totals["tx.commit_ratio"] = (
        totals["tx.commits"] / totals["tx.attempts"] if totals["tx.attempts"]
        else 0.0
    )
    totals["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    paired = [(energy, ungated[key]) for key, energy in gated if key in ungated]
    base = sum(reference for _energy, reference in paired)
    totals["power.gated_saving"] = (
        1.0 - sum(energy for energy, _reference in paired) / base if base
        else 0.0
    )
    return totals
