"""Deterministic discrete-event simulation engine.

The engine is a classic calendar-queue kernel: callbacks are scheduled
at absolute cycle times and executed in ``(time, sequence)`` order, so
two events scheduled for the same cycle fire in scheduling order.  This
total order is what makes whole simulations bit-reproducible — given the
same seed and configuration, every run produces the identical event
history (tested in ``tests/test_determinism.py``).  Sequence numbers are
assigned only here, in :meth:`Engine.schedule` and
:meth:`Engine.schedule_at`.

Design notes
------------
* An event is a plain ``list`` ``[time, seq, fn, args]``: the caller's
  handle and the heap entry at once.  ``heapq`` orders entries with
  C-level list comparison, which never looks past the unique ``seq``.
  ``args`` is ``None`` for zero-argument callbacks, which are invoked
  as ``fn()``.
* Cancellation is *lazy*: :func:`cancel` clears the entry's callback and
  the dispatch loops skip entries whose ``fn`` is ``None``.  This keeps
  ``heapq`` usage O(log n) and avoids the O(n) cost of removing from the
  middle of a heap.  The abort path of the HTM relies on this (a
  processor whose in-flight retry is aborted simply cancels it).
  Entries are never reused, so cancelling an event that has already
  fired is harmless.
* The engine never advances time backwards; scheduling in the past is a
  :class:`~repro.errors.SimulationError` (it would silently reorder
  causality).
* ``run()`` drains the queue.  An optional ``until`` bound and a
  ``max_events`` safety valve guard against runaway simulations; the
  HTM layer installs a deadlock watchdog on top (see
  :mod:`repro.htm.machine`).

``heappush``/``heappop`` are bound as default arguments of the hot
methods, avoiding a global lookup per event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError

__all__ = ["Event", "Engine", "cancel"]

#: A scheduled callback, ``[time, seq, fn, args]``, as returned by
#: :meth:`Engine.schedule`.
Event = list[Any]


def cancel(event: Event) -> None:
    """Cancel a scheduled event; it is skipped when popped.

    A no-op for an event that has already fired or been cancelled.
    """
    event[2] = None


class Engine:
    """The event queue and simulation clock.

    The current simulation time is :attr:`now` (integer cycles).  All
    model components share one engine instance; none of them keep their
    own notion of time.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[Event] = []
        self._seq: int = 0
        self.events_executed: int = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: int, fn: Callable[..., Any], *args: Any, _push=heappush
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        # The hottest entry point: it keeps its own body rather than
        # delegating to schedule_at (docs/performance.md, ablations).
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay} at t={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = [self.now + delay, seq, fn, args or None]
        _push(self._queue, event)
        return event

    def schedule_at(
        self, time: int, fn: Callable[..., Any], *args: Any, _push=heappush
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = [time, seq, fn, args or None]
        _push(self._queue, event)
        return event

    def reset(self) -> None:
        """Return the engine to its just-constructed state.

        Pending events are dropped.  Part of the
        :meth:`repro.htm.machine.Machine.reset` pristine-state contract.
        """
        self._queue.clear()
        self.now = 0
        self._seq = 0
        self.events_executed = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self, _pop=heappop) -> bool:
        """Execute the next live event.  Returns False when queue is empty."""
        queue = self._queue
        while queue:
            time, _seq, fn, args = _pop(queue)
            if fn is None:
                continue
            self.now = time
            self.events_executed += 1
            if args is None:
                fn()
            else:
                fn(*args)
            return True
        return False

    def run(
        self,
        until: int | None = None,
        max_events: int | None = None,
        _pop=heappop,
    ) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this cycle
            (the clock is left at the last executed event's time).
        max_events:
            Abort with :class:`SimulationError` after this many events —
            a safety valve against protocol livelock bugs.
        """
        queue = self._queue
        if until is None and max_events is None:
            # Unbounded drain: inline the dispatch loop (no per-event
            # method call, no head peeking).
            executed = 0
            try:
                while queue:
                    time, _seq, fn, args = _pop(queue)
                    if fn is None:
                        continue
                    self.now = time
                    executed += 1
                    if args is None:
                        fn()
                    else:
                        fn(*args)
            finally:
                self.events_executed += executed
            return

        executed = 0
        while queue:
            # Peek past cancelled heads without executing them.
            head = queue[0]
            if head[2] is None:
                _pop(queue)
                continue
            if until is not None and head[0] > until:
                return
            if not self.step():  # pragma: no cover - guarded by `while queue`
                return
            executed += 1
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {executed} events at "
                    f"t={self.now}; possible livelock"
                )

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for event in self._queue if event[2] is not None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine t={self.now} pending={self.pending()}>"
