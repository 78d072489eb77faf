"""Unit tests for the simulation kernel."""

import pytest

from repro.simcore.simulator import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_call_later_advances_clock():
    sim = Simulator()
    fired = []
    sim.call_later(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.call_later(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run(until=15.0)
    assert fired == ["late"]


def test_run_until_advances_clock_even_when_queue_drains():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    sim.run(until=100.0)
    assert sim.now == 100.0


@pytest.mark.parametrize("profiled", [False, True])
def test_run_until_nan_rejected(profiled):
    # NaN compares False against every event time, so an unchecked NaN
    # bound would drain the whole queue instead of stopping anywhere.
    sim = Simulator()
    if profiled:
        sim.enable_profiling()
    fired = []
    sim.call_later(1.0, fired.append, "early")
    sim.call_later(500.0, fired.append, "late")
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert (sim.now, fired, sim.pending()) == (0.0, [], 2)
    sim.run(until=10.0)
    assert (sim.now, fired) == (10.0, ["early"])


def test_at_schedules_absolute():
    sim = Simulator()
    times = []
    sim.at(7.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [7.0]


def test_at_in_past_raises():
    sim = Simulator()
    sim.call_later(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().call_later(-1.0, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def first():
        sim.call_later(1.0, fired.append, "second")
        fired.append("first")

    sim.call_later(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_stop_halts_processing():
    sim = Simulator()
    fired = []
    sim.call_later(1.0, lambda: (fired.append(1), sim.stop()))
    sim.call_later(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    # Remaining event still pending; a new run picks it up.
    sim.run()
    assert fired == [1, 2]


def test_step_processes_single_event():
    sim = Simulator()
    fired = []
    sim.call_later(1.0, fired.append, "a")
    sim.call_later(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False


def test_cancel_via_returned_event():
    sim = Simulator()
    fired = []
    event = sim.call_later(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_pending_counts_live_events():
    sim = Simulator()
    event = sim.call_later(1.0, lambda: None)
    sim.call_later(2.0, lambda: None)
    assert sim.pending() == 2
    event.cancel()
    assert sim.pending() == 1


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.call_later(1.0, reenter)
    sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.call_later(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_step_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        with pytest.raises(SimulationError):
            sim.step()
        errors.append("guarded")

    sim.call_later(1.0, reenter)
    sim.run()
    assert errors == ["guarded"]


def test_step_from_run_callback_raises():
    sim = Simulator()
    caught = []

    def reenter():
        try:
            sim.step()
        except SimulationError:
            caught.append(True)

    sim.call_later(1.0, reenter)
    sim.call_later(2.0, lambda: None)
    sim.run()
    assert caught == [True]
    # The second event must still fire through run(), untouched by the
    # failed step() attempt.
    assert sim.events_processed == 2
