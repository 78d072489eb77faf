"""Unit tests for the event queue.

The ordering contract — ``(time, seq)`` total order, FIFO within an
instant, lazy deletion, span terminators — plus the edge cases the
simulator's inlined run loop and ``call_later`` must agree on.
"""

import math

import pytest

from repro.simcore.events import Event, EventQueue
from repro.simcore.simulator import SimulationError, Simulator


@pytest.fixture
def queue():
    return EventQueue()


def test_push_pop_orders_by_time(queue):
    fired = []
    queue.push(3.0, fired.append, (3,))
    queue.push(1.0, fired.append, (1,))
    queue.push(2.0, fired.append, (2,))
    order = []
    while (event := queue.pop()) is not None:
        order.append(event.time)
    assert order == [1.0, 2.0, 3.0]


def test_same_time_fifo_by_sequence(queue):
    first = queue.push(5.0, lambda: None)
    second = queue.push(5.0, lambda: None)
    assert queue.pop() is first
    assert queue.pop() is second


def test_cancel_skips_event(queue):
    keep = queue.push(1.0, lambda: None)
    cancelled = queue.push(0.5, lambda: None)
    cancelled.cancel()
    assert queue.pop() is keep
    assert queue.pop() is None


def test_cancel_is_idempotent_and_len_accurate(queue):
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    event.cancel()
    event.cancel()
    assert len(queue) == 1


def test_cancel_after_pop_does_not_corrupt_count(queue):
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    popped = queue.pop()
    assert popped is event
    popped.cancel()  # late cancel of an already-fired event
    assert len(queue) == 1
    assert queue.pop() is not None
    assert len(queue) == 0


def test_peek_time_skips_cancelled(queue):
    early = queue.push(1.0, lambda: None)
    queue.push(4.0, lambda: None)
    early.cancel()
    assert queue.peek_time() == 4.0


def test_peek_time_empty_queue(queue):
    assert queue.peek_time() is None
    assert queue.pop() is None


def test_event_carries_args(queue):
    received = []
    queue.push(1.0, lambda a, b: received.append((a, b)), (1, 2))
    event = queue.pop()
    event.callback(*event.args)
    assert received == [(1, 2)]


def test_cancel_releases_callback_and_args(queue):
    # Cancelled events sit in the queue until collected (lazy deletion);
    # the closure and its arguments must not be pinned that whole time.
    payload = object()
    event = queue.push(1.0, lambda value: value, (payload,))
    event.cancel()
    assert event.callback is None
    assert event.args == ()


def test_pop_due_respects_limit(queue):
    first = queue.push(1.0, lambda: None)
    queue.push(5.0, lambda: None)
    assert queue.pop_due(0.5) is None
    assert queue.pop_due(1.0) is first
    assert queue.pop_due(2.0) is None
    assert len(queue) == 1


def test_pop_due_skips_cancelled_and_drains(queue):
    cancelled = queue.push(1.0, lambda: None)
    keep = queue.push(2.0, lambda: None)
    cancelled.cancel()
    assert queue.pop_due(None) is keep
    assert queue.pop_due(None) is None


# ----------------------------------------------------------------------
# Stats API
# ----------------------------------------------------------------------
def test_depth_and_stats_track_live_and_dead(queue):
    events = [queue.push(float(index), lambda: None) for index in range(6)]
    for event in events[:4]:
        event.cancel()
    assert len(queue) == 2  # live events only
    assert queue.depth() == 6  # live + still-parked cancelled entries
    assert queue.stats() == {"live": 2, "dead": 4, "depth": 6}


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_pop_due_exactly_at_limit(queue):
    # The limit is inclusive: an event *at* the limit is due, one an
    # ulp later is not.
    at_limit = queue.push(2.0, lambda: None)
    queue.push(math.nextafter(2.0, math.inf), lambda: None)
    assert queue.pop_due(2.0) is at_limit
    assert queue.pop_due(2.0) is None
    assert len(queue) == 1


def test_peek_time_after_mass_cancel(queue):
    events = [queue.push(float(index), lambda: None) for index in range(200)]
    survivor = queue.push(500.0, lambda: None)
    for event in events:
        event.cancel()
    assert queue.peek_time() == 500.0
    assert queue.pop() is survivor
    assert queue.peek_time() is None


def test_step_over_fully_cancelled_queue():
    sim = Simulator()
    timers = [sim.call_later(float(index), lambda: None) for index in range(8)]
    for timer in timers:
        timer.cancel()
    assert sim.step() is False
    assert sim.now == 0.0
    assert sim.pending() == 0


def test_zero_delay_self_reschedule_chain():
    # A zero-delay chain must make progress (each link is a fresh seq,
    # so it fires after everything already queued at that instant) and
    # must not spin the clock backwards.
    sim = Simulator()
    hops = []

    def hop(remaining):
        hops.append(sim.now)
        if remaining:
            sim.call_later(0.0, hop, remaining - 1)

    sim.call_later(1.0, hop, 4)
    sim.call_later(1.0, hops.append, "sibling")
    sim.run()
    assert hops == [1.0, "sibling", 1.0, 1.0, 1.0, 1.0]
    assert sim.now == 1.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.at(-0.5, lambda: None)


def test_nan_delay_rejected():
    sim = Simulator()
    nan = float("nan")
    with pytest.raises(SimulationError):
        sim.call_later(nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.at(nan, lambda: None)


# ----------------------------------------------------------------------
# Ordering-key regression
# ----------------------------------------------------------------------
def test_event_has_no_ordering_dunder():
    # Ordering lives in the (time, seq) tuple key owned by the queue,
    # never on Event itself: an Event.__lt__ would turn every C-speed
    # heap comparison into an interpreter call. Pin its absence.
    assert "__lt__" not in vars(Event)
    with pytest.raises(TypeError):
        Event(1.0, 1, lambda: None, ()) < Event(2.0, 2, lambda: None, ())
