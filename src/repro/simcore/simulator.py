"""The simulation kernel: a virtual clock driving a binary-heap event queue."""

from __future__ import annotations

import math
import time as _walltime
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from repro.simcore.events import Event, EventQueue, SimulationError

__all__ = ["SimProfile", "SimulationError", "Simulator"]


class SimProfile:
    """Wall-clock profile of a simulator run, gathered by the profiled loop.

    ``sites`` maps a callback site (its ``__qualname__``) to
    ``[calls, wall_seconds]``. The profile accumulates across every
    :meth:`Simulator.run` call after :meth:`Simulator.enable_profiling`.
    ``max_depth`` tracks the deepest the queue got (live plus
    lazily-deleted entries); ``max_dead`` isolates the cancelled-pending
    component so lazy-deletion bloat is observable on its own.
    """

    __slots__ = (
        "wall_seconds",
        "sim_seconds",
        "events",
        "max_depth",
        "max_dead",
        "sites",
    )

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.sim_seconds = 0.0
        self.events = 0
        self.max_depth = 0
        self.max_dead = 0
        self.sites: Dict[str, List[float]] = {}

    def summary(self) -> Dict[str, Any]:
        """Plain-data summary, picklable and JSON-friendly."""
        wall = self.wall_seconds
        return {
            "wall_seconds": wall,
            "sim_seconds": self.sim_seconds,
            "events": self.events,
            "max_depth": self.max_depth,
            "max_dead": self.max_dead,
            "events_per_second": self.events / wall if wall > 0 else 0.0,
            "wall_per_sim_second": (
                wall / self.sim_seconds if self.sim_seconds > 0 else 0.0
            ),
            "sites": {
                name: {"calls": calls, "wall_seconds": site_wall}
                for name, (calls, site_wall) in sorted(
                    self.sites.items(), key=lambda item: -item[1][1]
                )
            },
        }

    def __repr__(self) -> str:
        return (
            f"<SimProfile events={self.events} wall={self.wall_seconds:.3f}s "
            f"sim={self.sim_seconds:.1f}s max_depth={self.max_depth}>"
        )


class Simulator:
    """A single-threaded discrete-event simulator.

    Time is a float in seconds, starting at 0. Callbacks scheduled for the
    same instant run in scheduling order. The kernel never advances the
    clock past ``until`` when one is given to :meth:`run`.

    ``call_later`` is an instance attribute rather than a method: it is a
    closure with the queue insert inlined, so scheduling a timer costs a
    single call frame, and it can be wrapped per instance.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.call_later(5.0, fired.append, 1)
        >>> sim.run()
        >>> (sim.now, fired)
        (5.0, [1])
    """

    __slots__ = (
        "now",
        "_queue",
        "_running",
        "_stopped",
        "events_processed",
        "profile",
        "call_later",
    )

    #: Schedule ``callback(*args)`` after ``delay`` seconds -> Event.
    call_later: Callable[..., Event]

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.events_processed = 0
        # Profiling sink, ``None`` unless enable_profiling() was called.
        # run() checks it exactly once per invocation, so the unprofiled
        # loop carries zero instrumentation.
        self.profile: Optional[SimProfile] = None
        self.call_later = self._make_call_later()

    def _make_call_later(self) -> Callable[..., Event]:
        """Build ``call_later``: the delay check and ``EventQueue.push``
        fused into one frame. Must stay in step with ``push``."""
        sim = self
        queue = self._queue
        heap = queue._heap

        def call_later(
            delay: float, callback: Callable[..., Any], *args: Any
        ) -> Event:
            """Schedule ``callback(*args)`` after ``delay`` seconds."""
            # The comparison is False for NaN, so NaN delays take the
            # error branch too.
            if delay >= 0:
                time = sim.now + delay
                seq = queue._seq + 1
                queue._seq = seq
                event = Event(time, seq, callback, args, queue)
                heappush(heap, (time, seq, event))
                queue._live += 1
                return event
            raise SimulationError(f"negative delay {delay!r}")

        return call_later

    def enable_profiling(self) -> SimProfile:
        """Switch :meth:`run` to the instrumented loop; returns the profile."""
        if self.profile is None:
            self.profile = SimProfile()
        return self.profile

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        # Inverted comparison so NaN (which fails every comparison) is
        # rejected instead of poisoning the queue order.
        if not (time >= self.now):
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {self.now!r}"
            )
        return self._queue.push(time, callback, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or the clock hits ``until``.

        When ``until`` is given, the clock is left exactly at ``until`` even
        if the queue drained earlier, so repeated ``run(until=...)`` calls
        advance time monotonically. After :meth:`stop`, the loop returns
        once the current callback does; an event whose callback raises
        still counts in ``events_processed``.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and math.isnan(until):
            raise SimulationError("cannot run until NaN")
        if self.profile is not None:
            return self._run_profiled(until)
        self._running = True
        self._stopped = False
        # EventQueue.pop_due inlined: skip cancelled heads, stop at the
        # limit, detach each event before it fires.
        queue = self._queue
        heap = queue._heap
        limit = math.inf if until is None else until
        fired = 0
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    queue._dead -= 1
                    continue
                if time > limit:
                    break
                heappop(heap)
                queue._live -= 1
                event._queue = None
                self.now = time
                fired += 1
                event.callback(*event.args)
                if self._stopped:
                    break
            if until is not None and until > self.now and not self._stopped:
                self.now = until
        finally:
            self.events_processed += fired
            self._running = False

    def _run_profiled(self, until: Optional[float] = None) -> None:
        """The instrumented twin of :meth:`run`.

        Kept separate so the unprofiled loop carries zero instrumentation;
        this one pays two ``perf_counter`` reads per event to attribute
        wall time to callback sites (by ``__qualname__``) and to track
        queue depth and its cancelled-pending share.
        """
        profile = self.profile
        assert profile is not None
        self._running = True
        self._stopped = False
        queue = self._queue
        pop_due = queue.pop_due
        # The profiler measures *real* elapsed time per callback site by
        # design; it never feeds simulation state.
        perf = _walltime.perf_counter  # repro-lint: allow[determinism]
        sites = profile.sites
        start_now = self.now
        loop_start = perf()
        try:
            while not self._stopped:
                queue_depth = queue.depth()
                if queue_depth > profile.max_depth:
                    profile.max_depth = queue_depth
                dead = queue._dead
                if dead > profile.max_dead:
                    profile.max_dead = dead
                event = pop_due(until)
                if event is None:
                    break
                self.now = event.time
                self.events_processed += 1
                profile.events += 1
                callback = event.callback
                site = getattr(callback, "__qualname__", None) or type(
                    callback
                ).__name__
                before = perf()
                callback(*event.args)
                elapsed = perf() - before
                entry = sites.get(site)
                if entry is None:
                    sites[site] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
            if until is not None and until > self.now and not self._stopped:
                self.now = until
        finally:
            self._running = False
            profile.wall_seconds += perf() - loop_start
            profile.sim_seconds += self.now - start_now

    def step(self) -> bool:
        """Process a single event. Returns False if the queue was empty."""
        if self._running:
            raise SimulationError("step() is not reentrant")
        event = self._queue.pop()
        if event is None:
            return False
        self._running = True
        try:
            self.now = event.time
            self.events_processed += 1
            event.callback(*event.args)
        finally:
            self._running = False
        return True

    def stop(self) -> None:
        """Stop :meth:`run` after the current callback returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return len(self._queue)

    def queue_stats(self) -> Dict[str, Any]:
        """Live/dead/depth counts for the event queue."""
        return self._queue.stats()
