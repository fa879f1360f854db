"""Discrete-event simulation engine.

This package provides the simulation substrate used by every other part of
the Mayflower reproduction: a deterministic event loop (:class:`EventLoop`),
generator-based cooperative processes (:class:`Process`), one-shot signalling
primitives (:class:`Signal`), periodic timers (:class:`PeriodicTimer`), and
named deterministic random streams (:class:`RandomStreams`).

Time is a float in simulated seconds.  The loop is strictly deterministic:
events scheduled at the same timestamp fire in FIFO scheduling order, and
all randomness is drawn from explicitly seeded streams.
"""

from repro.sim.engine import EventHandle, EventLoop, PeriodicTimer, SimulationError
from repro.sim.process import Delay, Process, Signal
from repro.sim.randomness import RandomStreams

__all__ = [
    "Delay",
    "EventHandle",
    "EventLoop",
    "PeriodicTimer",
    "Process",
    "RandomStreams",
    "Signal",
    "SimulationError",
]
