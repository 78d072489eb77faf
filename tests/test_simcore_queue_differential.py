"""Model-based tests: the event queue and simulator against an oracle.

The oracle is a deliberately naive sorted-list model of the kernel's
contract, written here independently of ``repro.simcore``: entries are
kept in ``(time, seq)`` order with ``bisect.insort``, cancelled entries
stay stored until they reach the front (lazy deletion), and the run loop
pops one due entry at a time. Seeded random traces of push / cancel /
pop / ``pop_due`` / peek operations, and of ``Simulator`` runs with
``stop()`` and ``until`` bounds, must produce the same observable log
from the real heap kernel and from the model: the same fire sequence
(FIFO within an instant), the same clock, and the same live/dead counts.
"""

import random
from bisect import insort

import pytest

from repro.simcore.events import EventQueue
from repro.simcore.simulator import Simulator


class OracleEvent:
    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class OracleQueue:
    """Sorted list of every stored ``(time, seq, event)`` entry."""

    def __init__(self):
        self.entries = []
        self.seq = 0

    def push(self, time, callback, args=()):
        self.seq += 1
        event = OracleEvent(time, self.seq, callback, args)
        insort(self.entries, (time, self.seq, event))
        return event

    def _front(self):
        """Discard cancelled entries at the front; return the first live one."""
        while self.entries and self.entries[0][2].cancelled:
            del self.entries[0]
        return self.entries[0] if self.entries else None

    def pop_due(self, limit=None):
        front = self._front()
        if front is None or (limit is not None and front[0] > limit):
            return None
        del self.entries[0]
        return front[2]

    def pop(self):
        return self.pop_due(None)

    def peek_time(self):
        front = self._front()
        return None if front is None else front[0]

    def __len__(self):
        return sum(not event.cancelled for _, _, event in self.entries)

    def depth(self):
        return len(self.entries)

    def stats(self):
        live = len(self)
        return {"live": live, "dead": self.depth() - live, "depth": self.depth()}


class OracleSim:
    """One-event-at-a-time simulator over :class:`OracleQueue`."""

    def __init__(self):
        self.now = 0.0
        self.queue = OracleQueue()
        self.events_processed = 0
        self.stopped = False

    def at(self, time, callback, *args):
        assert time >= self.now
        return self.queue.push(time, callback, args)

    def call_later(self, delay, callback, *args):
        assert delay >= 0
        return self.queue.push(self.now + delay, callback, args)

    def stop(self):
        self.stopped = True

    def pending(self):
        return len(self.queue)

    def queue_stats(self):
        return self.queue.stats()

    def run(self, until=None):
        self.stopped = False
        while not self.stopped:
            event = self.queue.pop_due(until)
            if event is None:
                break
            self.now = event.time
            self.events_processed += 1
            event.callback(*event.args)
        if until is not None and until > self.now and not self.stopped:
            self.now = until


# ----------------------------------------------------------------------
# Raw queue: seeded push/cancel/pop/pop_due/peek traces
# ----------------------------------------------------------------------
def _replay_queue_trace(queue, seed):
    """Apply one seeded operation trace; return every observable output.

    Times never go below the latest popped time (the simulator clock is
    monotone, and ``Simulator.at`` enforces it), but pushes *at* already
    served instants and at shared integer instants are generated on
    purpose, so ties exercise FIFO-within-an-instant.
    """
    rng = random.Random(seed)
    live = []
    floor = 0.0
    log = []
    for _ in range(2000):
        op = rng.random()
        if op < 0.45:
            time = floor + rng.choice(
                (0.0, float(rng.randrange(50)), rng.random() * 50.0)
            )
            event = queue.push(time, lambda: None)
            live.append(event)
            log.append(("push", event.time, event.seq))
        elif op < 0.60 and live:
            event = live.pop(rng.randrange(len(live)))
            event.cancel()
            event.cancel()  # idempotence must hold mid-trace too
            log.append(("cancel", event.time, event.seq))
        elif op < 0.75:
            event = queue.pop()
            if event is not None:
                floor = event.time
                log.append(("pop", event.time, event.seq))
            else:
                log.append(("pop", None))
        elif op < 0.90:
            limit = floor + rng.random() * 20.0
            event = queue.pop_due(limit)
            if event is not None:
                floor = event.time
                log.append(("pop_due", event.time, event.seq))
            else:
                log.append(("pop_due", None))
        else:
            log.append(("peek", queue.peek_time(), queue.stats()))
        log.append(("counts", len(queue), queue.depth()))
    while (event := queue.pop()) is not None:
        log.append(("drain", event.time, event.seq))
    log.append(("final", queue.stats(), queue.peek_time()))
    return log


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_queue_trace_matches_oracle(seed):
    assert _replay_queue_trace(EventQueue(), seed) == _replay_queue_trace(
        OracleQueue(), seed
    )


# ----------------------------------------------------------------------
# Simulator: run / stop / until traces
# ----------------------------------------------------------------------
def _replay_sim_trace(sim, seed):
    """A seeded timer workload driven through ``run(until)`` segments.

    Mixes the shapes the experiments produce: same-instant bursts,
    cancel-before-fire (resolver retries), zero-delay reschedules,
    callbacks that schedule more work, and callbacks that ``stop()`` the
    run — across several bounded run windows, so the trace also covers
    events left queued at a limit and runs resumed after a stop.
    """
    rng = random.Random(seed)
    fired = []

    def note(tag):
        fired.append((sim.now, tag, sim.pending()))

    def reschedule(tag, remaining):
        note(tag)
        if remaining:
            delay = rng.choice((0.0, 0.25, 1.0))
            sim.call_later(delay, reschedule, tag, remaining - 1)

    def halt(tag):
        note(tag)
        sim.stop()

    for index in range(300):
        shape = rng.random()
        when = rng.choice((float(rng.randrange(90)), rng.random() * 90.0))
        if shape < 0.45:
            sim.at(when, note, index)
        elif shape < 0.75:
            sim.at(when, reschedule, index, rng.randrange(4))
        elif shape < 0.76:
            sim.at(when, halt, ("halt", index))
        else:
            victim_base = rng.random() * 90.0
            victim = sim.at(victim_base + 5.0, note, ("victim", index))
            if rng.random() < 0.8:
                sim.at(victim_base, lambda v=victim: v.cancel())
    segments = []
    # Repeated limits give empty windows; each stop() ends a run early,
    # and the unbounded runs at the end resume after every stop.
    for cut in (20.0, 20.0, 55.5, 55.5, 80.0) + (None,) * 12:
        sim.run(until=cut)
        segments.append(
            (sim.now, sim.events_processed, sim.pending(), sim.queue_stats())
        )
    return fired, segments


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_sim_trace_matches_oracle(seed):
    assert _replay_sim_trace(Simulator(), seed) == _replay_sim_trace(
        OracleSim(), seed
    )
