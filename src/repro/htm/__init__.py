"""Scalable-TCC hardware transactional memory (systems S3+S4).

The processor model executes *thread programs* — generator coroutines
yielding architectural intents (:mod:`~repro.htm.ops`) — against the
memory hierarchy, with lazy versioning (stores buffered privately until
commit) and lazy conflict detection (aborts arrive as directory
invalidations at commit time), exactly the TCC execution model the
paper builds on.

``transaction`` names both a submodule and the :mod:`~repro.htm.ops`
helper: the submodule is imported first so that the name binds to the
helper.
"""

from .transaction import TxHandle, TxState, TxStatus
from .ops import Load, Store, Compute, TxOp, BarrierOp, transaction
from .program import ThreadContext, ThreadProgram
from .token import TokenVendor
from .processor import Processor
from .machine import Machine, MachineResult

__all__ = [
    "Load",
    "Store",
    "Compute",
    "TxOp",
    "BarrierOp",
    "transaction",
    "ThreadContext",
    "ThreadProgram",
    "TxHandle",
    "TxState",
    "TxStatus",
    "TokenVendor",
    "Processor",
    "Machine",
    "MachineResult",
]
