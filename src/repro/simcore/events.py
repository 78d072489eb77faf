"""The simulator's event queue: a binary heap with lazy deletion.

Events are ordered by ``(time, seq)`` so simultaneous events run in the
deterministic order they were scheduled, which keeps whole simulations
reproducible from a single seed. The heap stores ``(time, seq, event)``
tuples rather than events themselves: tuple comparison is handled
entirely in C, so the heap never pays for a Python-level ``__lt__`` per
comparison. ``Event`` therefore deliberately does NOT define ``__lt__``;
see ``tests/test_simcore_events.py`` for the regression test pinning
that invariant.

Cancelled events stay in the heap and are skipped when they reach the
top; this is the standard lazy-deletion pattern and keeps
:meth:`Event.cancel` O(1). ``tests/test_simcore_queue_differential.py``
replays seeded push/cancel/pop traces against an independent sorted-list
model of this contract.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g., scheduling in the past).

    Defined here (not in ``simulator``) so the queue module stays free of
    import cycles; ``repro.simcore.simulator`` re-exports it, which
    remains the canonical import site for user code.
    """


class Event:
    """A scheduled callback, cancellable until it fires.

    Instances are returned by :meth:`repro.simcore.simulator.Simulator.at`
    and :meth:`~repro.simcore.simulator.Simulator.call_later`; user code
    only ever needs :meth:`cancel` and the read-only attributes.

    Note the deliberate absence of ``__lt__``: events are never compared,
    because the heap orders ``(time, seq, event)`` tuples whose ``seq``
    is unique. A Python-level comparison hook would silently turn every
    C-speed sift comparison into an interpreter call.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "span", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Optional (tracer, trace_id, site) set by traced timers.
        self.span: Optional[Tuple[Any, Any, Any]] = None
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent.

        Also drops the ``callback``/``args`` references: a cancelled event
        stays queued until served (lazy deletion), and in long retry-heavy
        runs the pending closures would otherwise pin resolver state long
        after the timers were abandoned.

        When a traced timer is cancelled before firing, its span context
        (attached by the scheduling component) emits a ``cancelled``
        terminator so the trace does not leak an open retry/timeout span.
        Cancel-after-fire must stay silent, so the emission only happens
        while the event is still queued.
        """
        if not self.cancelled:
            self.cancelled = True
            self.callback = None  # type: ignore[assignment]
            self.args = ()
            queue = self._queue
            if queue is not None:
                queue._live -= 1
                queue._dead += 1
                self._queue = None
                span = self.span
                if span is not None:
                    self.span = None
                    tracer, trace_id, site = span
                    tracer.emit(trace_id, "cancelled", site)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class EventQueue:
    """Binary heap of ``(time, seq, event)`` entries.

    ``_live`` counts pending non-cancelled events; ``_dead`` counts
    cancelled events still stored awaiting lazy removal. ``Event.cancel``
    moves one from live to dead; serving code decrements whichever side
    it consumes, and detaches a served event (``event._queue = None``) so
    a late cancel cannot decrement the live count twice. ``depth()``
    (live + dead) is what the profiler tracks, making lazy-deletion bloat
    observable. The simulator's run loop and ``call_later`` inline
    ``pop_due`` and ``push``, and must keep this bookkeeping in step.
    """

    __slots__ = ("_heap", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def depth(self) -> int:
        """Stored entries, including cancelled ones awaiting removal."""
        return self._live + self._dead

    def stats(self) -> Dict[str, Any]:
        """Plain-data queue statistics (JSON-friendly)."""
        return {
            "live": self._live,
            "dead": self._dead,
            "depth": self._live + self._dead,
        }

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        self._seq += 1
        seq = self._seq
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        return self.pop_due(None)

    def pop_due(self, limit: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest pending event if it is due at/before ``limit``.

        Returns ``None`` when the queue is drained or the next event lies
        beyond ``limit`` (leaving it scheduled).
        """
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if limit is not None and time > limit:
                return None
            heapq.heappop(heap)
            self._live -= 1
            event._queue = None
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]


# Read only by perfbench's environment header, which predates the
# single-queue kernel; nothing in the package uses them.
_ckernel = None


def resolve_queue_backend(name: str) -> str:
    return "heap"
