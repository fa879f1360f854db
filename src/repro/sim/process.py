"""Generator-based cooperative processes on top of the event loop.

A *process* is a Python generator that yields scheduling directives:

* ``Delay(seconds)`` — resume after a simulated delay;
* a ``Signal`` — resume with its payload;
* another ``Process`` — resume with its return value (or its exception).

This gives RPC handlers and server loops a linear, readable style on a plain
callback heap; every resume calls a bound method, never a closure.  A signal
fired inside a process step schedules its wake-ups, so no body is re-entered;
fired from plain code (an RPC reply) it resumes a lone waiter in place.  A
process spawned inside a step starts at once, one spawned elsewhere on a
zero-delay kick-off; ``EventLoop.in_process_step`` tells the two apart.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Tuple, Union

from repro.sim import instrument
from repro.sim.engine import EventLoop, SimulationError


#: A debugging label: a string, or a tuple of labels joined only when read,
#: so a hot path names what it creates without formatting a string.
Label = Union[str, Tuple["Label", ...]]


def _joined(label: Label) -> str:
    if isinstance(label, str):
        return label
    return "".join(_joined(part) for part in label)


class Delay:
    """Directive: suspend the yielding process for ``seconds`` of sim time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise SimulationError(f"delay must be non-negative, got {seconds!r}")
        self.seconds = seconds


class Signal:
    """A one-shot broadcast event processes can wait on.

    Once :meth:`fire` is called, all current waiters resume with the payload
    and any later waiter resumes immediately.  Firing twice is an error —
    one-shot semantics keep RPC completion logic honest.
    """

    __slots__ = ("_loop", "_fired", "_payload", "_waiters", "_name")

    def __init__(self, loop: EventLoop, name: Label = ""):
        self._loop = loop
        self._fired = False
        self._payload: Any = None
        self._waiters: list[Callable[[Any], None]] = []
        self._name = name

    @property
    def name(self) -> str:
        return _joined(self._name)

    def fire(self, payload: Any = None) -> None:
        """Fire the signal, waking every waiter with ``payload``."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._payload = payload
        waiters, self._waiters = self._waiters, []
        loop = self._loop
        if len(waiters) == 1 and not loop.in_process_step:
            # No process body is running, so none can be re-entered: the
            # one waiter resumes inside this event.
            waiters[0](payload)
            return
        for waiter in waiters:
            # Inside a process step each wake-up is a zero-delay event, so
            # a fire() cannot reentrantly advance another process; several
            # waiters are scheduled the same way, in registration order.
            loop.call_in(0.0, waiter, payload)

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register a wake-up callback; fires immediately if already fired."""
        if self._fired:
            self._loop.call_in(0.0, callback, self._payload)
        else:
            self._waiters.append(callback)


class Process:
    """Drives a generator as a cooperative simulated process.

    Parameters
    ----------
    loop:
        The event loop providing time.
    generator:
        The coroutine body.  Its ``return`` value becomes :attr:`result`.
    name:
        Debugging label (a :data:`Label`).
    """

    def __init__(self, loop: EventLoop, generator: Generator, name: Label = ""):
        self._loop = loop
        self._gen = generator
        self._name = name
        self.finished = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._done_signal = Signal(loop, ("done:", name))
        #: The child process this one is waiting on, if any.
        self._child: Optional[Process] = None
        # The trace context of whoever constructed this process.  Each
        # resume runs the generator under the process's own saved context
        # (and saves back whatever it left installed), so contexts follow
        # cooperative processes the way contextvars follow asyncio tasks.
        self._trace_ctx = instrument.TRACE_CTX
        if loop.in_process_step:
            # Spawned by a running process: start at once, inside its step.
            self._advance(None)
        else:
            # Kick off on a zero-delay event, so construction from plain
            # code never runs user code.
            loop.call_in(0.0, self._advance, None)

    @property
    def name(self) -> str:
        return _joined(self._name)

    @property
    def done_signal(self) -> Signal:
        """Signal fired (with the process result) when the process finishes."""
        return self._done_signal

    def _advance(self, value: Any, exc: Optional[BaseException] = None) -> None:
        """Resume the generator with ``value`` (or throw ``exc`` into it)
        and act on the directive it yields next."""
        if self.finished:
            return
        loop = self._loop
        outer_step = loop.in_process_step
        loop.in_process_step = True
        outer_ctx = instrument.TRACE_CTX
        instrument.TRACE_CTX = self._trace_ctx
        try:
            try:
                if exc is not None:
                    directive = self._gen.throw(exc)
                else:
                    directive = self._gen.send(value)
            except StopIteration as stop:
                self._finish(result=stop.value)
                return
            except BaseException as err:  # noqa: BLE001 - surfaced via .exception
                self._finish(error=err)
                return
            if isinstance(directive, Delay):
                loop.call_in(directive.seconds, self._advance, None)
            elif isinstance(directive, Signal):
                directive.add_waiter(self._advance)
            elif isinstance(directive, Process):
                self._child = directive
                directive._done_signal.add_waiter(self._child_done)
            else:
                self._advance(
                    None,
                    SimulationError(
                        f"process {self.name!r} yielded unsupported directive "
                        f"{directive!r}"
                    ),
                )
        finally:
            self._trace_ctx = instrument.TRACE_CTX
            instrument.TRACE_CTX = outer_ctx
            loop.in_process_step = outer_step

    def _child_done(self, _payload: Any) -> None:
        """The awaited child finished: resume with its result, or throw
        its exception."""
        child = self._child
        assert child is not None
        self._child = None
        if child.exception is not None:
            self._advance(None, child.exception)
        else:
            self._advance(child.result)

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self.finished = True
        self.result = result
        self.exception = error
        self._gen.close()
        self._done_signal.fire(result)


def spawn(loop: EventLoop, generator: Generator, name: Label = "") -> Process:
    """Convenience constructor mirroring ``Process(loop, generator, name)``."""
    return Process(loop, generator, name=name)
