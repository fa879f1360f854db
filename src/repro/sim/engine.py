"""Deterministic heap-based discrete-event loop.

The :class:`EventLoop` is the single source of simulated time.  Components
schedule callbacks with :meth:`EventLoop.call_at` / :meth:`EventLoop.call_in`
and the loop fires them in timestamp order; ties break by scheduling order so
repeated runs with the same seed produce byte-identical traces.  The heap
holds ``(time, seq, handle)`` tuples: ``seq`` numbers every scheduled event,
whichever of the two calls scheduled it, and is unique, so ``heapq``
compares in C and never reaches the handle.  Each scheduling call makes one
range check on its fast path, and :meth:`EventLoop.step` tests the
post-event hook tuple inline, so an event costs no Python call beyond its
own callback when no observer is armed.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Tuple

from repro.sim import instrument

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine.

    Examples include scheduling an event in the simulated past or running
    a loop that has already been exhausted past an explicit horizon.
    """


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    Cancellation is O(1): the entry stays in the heap but is skipped when
    popped.  ``cancelled`` may be inspected by user code.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., Any], args: Tuple[Any, ...]
    ):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., Any]] = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True
        self.callback = None
        self.args = ()


class EventLoop:
    """A deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock, in seconds.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._running = False
        #: True while a process body runs; ``repro.sim.process`` sets it
        #: and reads it to decide whether a wake-up may run in place.
        self.in_process_step = False
        self._events_processed = 0
        self._runs_traced = 0
        self._scheduler: Optional[
            Callable[[float, "list[EventHandle]"], int]
        ] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``.

        Raises
        ------
        SimulationError
            If ``when`` precedes the current simulated time or is not finite.
        """
        if not self._now <= when < _INF:
            if not math.isfinite(when):
                raise SimulationError(f"event time must be finite, got {when!r}")
            raise SimulationError(
                f"cannot schedule event in the past: {when:.9f} < now {self._now:.9f}"
            )
        seq = next(self._seq)
        handle = EventHandle(when, seq, callback, args)
        heappush(self._heap, (when, seq, handle))
        return handle

    def call_in(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` simulated seconds."""
        when = self._now + delay
        if not (delay >= 0.0 and when < _INF):
            if delay < 0:
                raise SimulationError(f"delay must be non-negative, got {delay!r}")
            raise SimulationError(f"event time must be finite, got {when!r}")
        seq = next(self._seq)
        handle = EventHandle(when, seq, callback, args)
        heappush(self._heap, (when, seq, handle))
        return handle

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` if idle."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def set_scheduler(
        self, scheduler: Optional[Callable[[float, "list[EventHandle]"], int]]
    ) -> None:
        """Install (or clear) an interleaving scheduler.

        When set, every :meth:`step` collects the full set of pending
        events that share the earliest timestamp and asks
        ``scheduler(time, events)`` which one fires next (an index into
        ``events``); the rest are re-queued with their original
        scheduling sequence, so unchosen events keep their deterministic
        tie-break order.  The scheduler is only consulted when two or
        more events are simultaneously ready — with none installed (the
        default) the loop's behavior is byte-identical to the legacy
        FIFO-tie-break path.  This is the seam the interleaving explorer
        (:mod:`repro.analysis.explore`) drives; production runs never
        install one.
        """
        self._scheduler = scheduler

    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` when idle."""
        if self._scheduler is not None:
            return self._step_scheduled()
        heap = self._heap
        while heap:
            when, _, handle = heappop(heap)
            if handle.cancelled:
                continue
            if when < self._now:  # pragma: no cover - defensive
                raise SimulationError("event heap corrupted: time went backwards")
            self._now = when
            callback, args = handle.callback, handle.args
            handle.callback, handle.args = None, ()
            self._events_processed += 1
            assert callback is not None
            callback(*args)
            # SimSanitizer seam: re-verify simulation invariants after the
            # event settles (no-op unless an observer is armed).
            if instrument.POST_EVENT_HOOKS:
                for hook in instrument.POST_EVENT_HOOKS:
                    hook(self)
            return True
        return False

    def _step_scheduled(self) -> bool:
        """Fire one event of the earliest-timestamp ready set, letting
        the installed scheduler pick which."""
        ready: list[EventHandle] = []
        while self._heap:
            entry = heappop(self._heap)
            handle = entry[2]
            if handle.cancelled:
                continue
            if ready and handle.time > ready[0].time:
                heappush(self._heap, entry)
                break
            ready.append(handle)
        if not ready:
            return False
        index = 0
        if len(ready) > 1:
            assert self._scheduler is not None
            index = self._scheduler(ready[0].time, ready)
            if not 0 <= index < len(ready):
                raise SimulationError(
                    f"scheduler chose {index} of {len(ready)} ready events"
                )
        chosen = ready.pop(index)
        for other in ready:
            heappush(self._heap, (other.time, other.seq, other))
        if chosen.time < self._now:  # pragma: no cover - defensive
            raise SimulationError("event heap corrupted: time went backwards")
        self._now = chosen.time
        callback, args = chosen.callback, chosen.args
        chosen.callback, chosen.args = None, ()
        self._events_processed += 1
        assert callback is not None
        callback(*args)
        if instrument.POST_EVENT_HOOKS:
            for hook in instrument.POST_EVENT_HOOKS:
                hook(self)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the loop until idle, a time horizon, or an event budget.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            this time; the clock is advanced to ``until``.
        max_events:
            If given, stop after firing this many events (a runaway guard).
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        tel = instrument.TELEMETRY
        run_id: Optional[str] = None
        if tel is not None:
            run_id = f"run{self._runs_traced}"
            self._runs_traced += 1
            tel.begin(self._now, "loop.run", "sim", run_id,
                      pending=self.pending_events)
        try:
            fired = 0
            while True:
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible event storm"
                    )
                self.step()
                fired += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            if run_id is not None and tel is not None:
                tel.end(self._now, "loop.run", "sim", run_id,
                        events=self._events_processed)


class PeriodicTimer:
    """Fires ``callback()`` every ``interval`` seconds until stopped.

    The first firing happens at ``loop.now + first_delay`` (defaulting to one
    full interval).  Used for e.g. the Flowserver's switch-stats polling.
    """

    def __init__(
        self,
        loop: EventLoop,
        interval: float,
        callback: Callable[[], Any],
        first_delay: Optional[float] = None,
    ):
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive, got {interval!r}")
        self._loop = loop
        self.interval = interval
        self._callback = callback
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        delay = interval if first_delay is None else first_delay
        self._handle = loop.call_in(delay, self._fire)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._handle = self._loop.call_in(self.interval, self._fire)

    def stop(self) -> None:
        """Stop the timer.  Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
