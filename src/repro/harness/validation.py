"""Serializability validation (Invariant 1 of DESIGN.md).

The TCC commit protocol must make the committed transactions appear to
execute serially in TID order.  The checker replays the commit log:

* maintain a model memory starting from the initial image;
* apply non-transactional writes in timestamp order interleaved with
  commits (non-tx writes are only legal for thread-private data, but
  the replay tolerates them exactly where they happened);
* for each committed transaction, in TID order: every logged read must
  observe the model memory's current value, then its write-set is
  applied;
* afterwards, the model memory must equal the machine's final memory.

Any divergence is a protocol bug, reported with full context.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ProtocolError

if TYPE_CHECKING:
    from ..htm.machine import MachineResult

__all__ = ["check_serializability"]


def check_serializability(
    initial_memory: dict[int, int],
    result: MachineResult,
    version_log: list[tuple[int, int, int, int]],
) -> None:
    """Replay the commit log in TID order and compare against reality."""
    commits = sorted(result.commit_log, key=lambda tx: tx.tid)
    tids = [tx.tid for tx in commits]
    if len(set(tids)) != len(tids):
        raise ProtocolError(f"duplicate TIDs in commit log: {tids}")

    # Non-transactional writes, in commit order relative to transactions:
    # the version log is time-ordered; tx writes carry their TID, non-tx
    # writes carry -1.  Replay applies each non-tx write just before the
    # first transaction that committed after it.
    nontx = [(t, addr, val) for (t, addr, val, tid) in version_log if tid == -1]
    nontx_idx = 0

    model: dict[int, int] = dict(initial_memory)

    def apply_nontx_until(time: int) -> None:
        nonlocal nontx_idx
        while nontx_idx < len(nontx) and nontx[nontx_idx][0] <= time:
            _, addr, val = nontx[nontx_idx]
            model[addr] = val
            nontx_idx += 1

    for tx in commits:
        apply_nontx_until(tx.commit_time)
        for addr, observed in tx.reads:
            expected = model.get(addr, 0)
            if observed != expected:
                raise ProtocolError(
                    f"serializability violation: TID {tx.tid} "
                    f"({tx.site} on proc {tx.proc}) read {observed} at "
                    f"{addr:#x} but TID-order replay expects {expected}"
                )
        for addr, value in tx.writes:
            model[addr] = value
    apply_nontx_until(float("inf"))  # type: ignore[arg-type]

    final = result.memory_snapshot
    touched = set(model) | {
        addr for tx in commits for addr, _ in tx.writes
    }
    for addr in sorted(touched):
        if model.get(addr, 0) != final.get(addr, 0):
            raise ProtocolError(
                f"final memory diverges from TID-order replay at {addr:#x}: "
                f"machine={final.get(addr, 0)} replay={model.get(addr, 0)}"
            )
