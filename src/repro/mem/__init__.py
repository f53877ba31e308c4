"""Memory-hierarchy substrate (system S2 in DESIGN.md).

Models the Table II machine: private L1 data caches with speculative
read/write tracking, a common split-transaction bus, full-bit-vector
directories that interleave physical memory at cache-line granularity,
and a single-ported main memory.
"""

from typing import Any

from .. import _lazy

__all__ = [
    "AddressMap",
    "WORD_BYTES",
    "Bus",
    "L1Cache",
    "CacheLineState",
    "Directory",
    "MainMemory",
    "FillRequest",
    "FillReply",
    "FlushRequest",
    "FlushDone",
    "Invalidation",
    "StopClock",
    "TurnOn",
    "TxInfoReq",
    "TxInfoReply",
]

_EXPORTS: _lazy.Exports = {
    ".address": ("AddressMap", "WORD_BYTES"),
    ".bus": ("Bus",),
    ".cache": ("L1Cache", "CacheLineState"),
    ".directory": ("Directory",),
    ".memory": ("MainMemory",),
    ".messages": (
        "FillRequest", "FillReply", "FlushRequest", "FlushDone",
        "Invalidation", "StopClock", "TurnOn", "TxInfoReq", "TxInfoReply",
    ),
}


def __getattr__(name: str) -> Any:
    return _lazy.resolve(__name__, _EXPORTS, name)


def __dir__() -> list[str]:
    return _lazy.names(__name__, _EXPORTS)
