"""Event-engine semantics: ordering, cancellation, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine, cancel


def test_events_run_in_time_order():
    engine = Engine()
    order: list[int] = []
    engine.schedule(30, order.append, 3)
    engine.schedule(10, order.append, 1)
    engine.schedule(20, order.append, 2)
    engine.run()
    assert order == [1, 2, 3]
    assert engine.now == 30


def test_same_cycle_events_run_in_schedule_order():
    engine = Engine()
    order: list[str] = []
    engine.schedule(5, order.append, "first")
    engine.schedule(5, order.append, "second")
    engine.schedule(5, order.append, "third")
    engine.run()
    assert order == ["first", "second", "third"]


def test_zero_delay_from_callback_runs_same_cycle():
    engine = Engine()
    order: list[str] = []

    def outer() -> None:
        order.append("outer")
        engine.schedule(0, order.append, "inner")

    engine.schedule(3, outer)
    engine.run()
    assert order == ["outer", "inner"]
    assert engine.now == 3


def test_cancelled_event_is_skipped():
    engine = Engine()
    fired: list[int] = []
    event = engine.schedule(10, fired.append, 1)
    engine.schedule(20, fired.append, 2)
    cancel(event)
    engine.run()
    assert fired == [2]


def test_cancel_after_fire_spares_later_events():
    # A holder that cancels a handle after its event fired must not
    # touch any other event, in particular one scheduled after the fire.
    engine = Engine()
    fired: list[int] = []
    old = engine.schedule(1, fired.append, 1)
    engine.run()
    engine.schedule(1, fired.append, 2)
    cancel(old)
    engine.run()
    assert fired == [1, 2]
    assert engine.events_executed == 2


def test_cannot_schedule_in_the_past():
    engine = Engine()
    engine.schedule(5, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(3, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_run_until_bound():
    engine = Engine()
    fired: list[int] = []
    for t in (5, 10, 15, 20):
        engine.schedule(t, fired.append, t)
    engine.run(until=12)
    assert fired == [5, 10]
    engine.run()
    assert fired == [5, 10, 15, 20]


def test_max_events_guard():
    engine = Engine()

    def respawn() -> None:
        engine.schedule(1, respawn)

    engine.schedule(0, respawn)
    with pytest.raises(SimulationError, match="budget"):
        engine.run(max_events=100)


def test_pending_counts_live_events():
    engine = Engine()
    assert engine.pending() == 0
    e1 = engine.schedule(7, lambda: None)
    engine.schedule(3, lambda: None)
    assert engine.pending() == 2
    cancel(e1)
    assert engine.pending() == 1
    cancel(e1)  # cancelling twice is a no-op
    assert engine.pending() == 1
    engine.run()
    assert engine.pending() == 0
    assert engine.events_executed == 1


def test_step_returns_false_when_empty():
    assert Engine().step() is False


def test_events_executed_counter():
    engine = Engine()
    for t in range(5):
        engine.schedule(t, lambda: None)
    engine.run()
    assert engine.events_executed == 5


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60))
def test_execution_order_is_stable_sort(delays):
    """Events fire in (time, schedule-order): a stable sort of delays."""
    engine = Engine()
    fired: list[tuple[int, int]] = []
    for idx, delay in enumerate(delays):
        engine.schedule(delay, lambda d=delay, i=idx: fired.append((d, i)))
    engine.run()
    assert fired == sorted(
        ((d, i) for i, d in enumerate(delays)), key=lambda pair: (pair[0], pair[1])
    )
