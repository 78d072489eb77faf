"""Discrete-event simulation core.

This subpackage provides the clocked substrate every other component runs
on: a :class:`~repro.simcore.simulator.Simulator` with a priority event
queue, generator-based :class:`~repro.simcore.process.Process` coroutines,
one-shot :class:`~repro.simcore.process.Signal` synchronization, and
deterministic named random streams
(:class:`~repro.simcore.rng.RandomStreams`).

The engine is deliberately small and dependency-free; all DNS behavior in
this library (resolvers, servers, clients, attacks) is expressed as either
scheduled callbacks or generator processes on top of it.
"""

from repro.simcore.events import Event, EventQueue, SimulationError
from repro.simcore.process import AnyOf, Process, Signal, Timeout
from repro.simcore.rng import RandomStreams
from repro.simcore.simulator import SimProfile, Simulator

__all__ = [
    "AnyOf",
    "Event",
    "EventQueue",
    "Process",
    "RandomStreams",
    "Signal",
    "SimProfile",
    "SimulationError",
    "Simulator",
    "Timeout",
]
