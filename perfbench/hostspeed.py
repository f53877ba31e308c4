"""A fixed host-speed reference, timed between the benchmark's spawns.

On a shared host the speed of a CPU-bound Python process drifts by
±15–20 % over minutes, so spawn-to-exit seconds of identical work move
with the host, not with the program.  The benchmark times this fixed,
stdlib-only work before the first spawn and after every spawn, and
scales each spawn's seconds by ``NOMINAL_S`` over the mean of the two
reference times that bracket it.  The reference imports nothing from
the repository, so a change to the program moves the scaled figure as
much as the raw one, while a slow phase of the host moves both the
spawn and its reference and cancels out.

The host's speed also jitters within a second, so a reference shorter
than the spawn it corrects would add its own noise.  Each measurement
therefore repeats a short unit for ``SHARE`` of the bracketed spawn's
seconds (``MIN_S`` at least) and reports the unit's mean time.

The unit mixes what the simulator spends its time on: integer
arithmetic, a heap of small objects, and dict updates.
"""

from __future__ import annotations

import heapq
import time

#: one reference unit's seconds at nominal host speed (its median on a
#: 2-vCPU Xeon host); scaled figures read as seconds on that host
NOMINAL_S = 0.06

#: a measurement lasts this share of the spawn it follows, and at least
#: MIN_S seconds
SHARE = 0.3
MIN_S = 0.35


class _Event:
    __slots__ = ("at", "kind", "data")

    def __init__(self, at: int, kind: int, data: int) -> None:
        self.at, self.kind, self.data = at, kind, data

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def _arith(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _events(n: int) -> int:
    queue = [_Event(i, i % 7, i) for i in range(64)]
    heapq.heapify(queue)
    state: dict[tuple[int, int], int] = {}
    x = 12345
    for _ in range(n):
        event = heapq.heappop(queue)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (event.kind, x & 255)
        state[key] = state.get(key, 0) + event.data
        if len(state) > 4096:
            state.clear()
        heapq.heappush(queue, _Event(event.at + 1 + (x & 15),
                                     (event.kind + 1) % 7, x & 1023))
    return len(state)


def duration(span: float) -> float:
    """How long the measurement after a ``span``-second spawn runs."""
    return max(MIN_S, SHARE * span)


def measure(span: float = 0.0) -> float:
    """Mean seconds of one reference unit, timed for ``duration(span)``."""
    budget = duration(span)
    started = time.perf_counter()
    units = 0
    while True:
        _arith(400_000)
        _events(25_000)
        units += 1
        elapsed = time.perf_counter() - started
        if elapsed >= budget:
            return elapsed / units


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Each of ``seconds`` at nominal host speed.

    ``refs`` holds one more reference time than ``seconds``: the one
    before the first and one after each; spawn ``i`` is bracketed by
    ``refs[i]`` and ``refs[i + 1]``.
    """
    if len(refs) != len(seconds) + 1:
        raise ValueError("need one reference before and one after each")
    return [
        value * 2.0 * NOMINAL_S / (refs[i] + refs[i + 1])
        for i, value in enumerate(seconds)
    ]
