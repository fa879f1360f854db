"""The :class:`Telemetry` facade and the process-wide install point.

A telemetry session bundles one :class:`~repro.telemetry.tracer.Tracer`
and one :class:`~repro.telemetry.metrics.MetricsRegistry` and publishes
itself through :data:`repro.sim.instrument.TELEMETRY`.  Emit sites across
the stack read that global and guard with a single ``is None`` check, so
an uninstalled session costs nothing on the hot paths.

Counters are not pushed: while installed, the session binds each
announced component's own attributes (:data:`repro.telemetry.bind.COUNTERS`).
The facade offers one-call conveniences the trace emit sites use so each
site stays a two-liner::

    tel = instrument.TELEMETRY
    if tel is not None:
        tel.instant(now, "fault.link_down", "fault", target=link_id)

Use :func:`install`/:func:`uninstall` (or the :func:`session` context
manager, which tests prefer) to arm and disarm.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.sim import instrument
from repro.sim.engine import EventLoop

from repro.telemetry.bind import bind_counters
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    TimeSeriesSampler,
)
from repro.telemetry.tracer import Tracer
from repro.sim.instrument import TraceContext


class Telemetry:
    """One observability session: a tracer plus a metrics registry."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sampler: Optional[TimeSeriesSampler] = None
        #: Components announced on the bus while installed, by kind; the
        #: registry's counters read their attributes.
        self.components: Dict[str, List[Any]] = {}
        self._subscription: Optional[instrument.Subscription] = None

    # ------------------------------------------------------------------
    # Tracer delegation (the emit-site surface)
    # ------------------------------------------------------------------

    def instant(self, ts: float, name: str, cat: str, track: str = "sim",
                **args: object) -> None:
        self.tracer.instant(ts, name, cat, track, **args)

    def begin(self, ts: float, name: str, cat: str, span_id: str,
              track: str = "sim", **args: object) -> None:
        self.tracer.begin(ts, name, cat, span_id, track, **args)

    def end(self, ts: float, name: str, cat: str, span_id: str,
            track: str = "sim", **args: object) -> None:
        self.tracer.end(ts, name, cat, span_id, track, **args)

    def start_span(self, ts: float, name: str, cat: str, track: str = "sim",
                   span_id: Optional[str] = None, **args: object) -> TraceContext:
        return self.tracer.start_span(ts, name, cat, track, span_id, **args)

    def finish_span(self, ts: float, ctx: TraceContext, name: str, cat: str,
                    track: str = "sim", **args: object) -> None:
        self.tracer.finish_span(ts, ctx, name, cat, track, **args)

    def next_id(self, prefix: str) -> str:
        return self.tracer.next_id(prefix)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Record into (lazily creating) a histogram."""
        histogram = self.metrics.histogram(name, buckets=buckets)
        histogram.observe(value)
        return histogram

    def _on_component(self, kind: str, component: Any) -> None:
        """Bus hook: the first component of a kind binds its counters."""
        members = self.components.get(kind)
        if members is None:
            members = self.components[kind] = []
            bind_counters(self.metrics, kind, members)
        members.append(component)

    # ------------------------------------------------------------------
    # Periodic sampling
    # ------------------------------------------------------------------

    def start_sampler(self, loop: EventLoop,
                      interval: float = 1.0) -> TimeSeriesSampler:
        """Create (or restart) the session's periodic probe sampler."""
        if self._sampler is not None:
            self._sampler.stop()
        self._sampler = TimeSeriesSampler(
            loop, interval=interval, tracer=self.tracer, registry=self.metrics
        )
        self._sampler.start()
        return self._sampler

    @property
    def sampler(self) -> Optional[TimeSeriesSampler]:
        return self._sampler

    def stop_sampler(self) -> None:
        if self._sampler is not None:
            self._sampler.stop()

    def close(self) -> None:
        """Stop timers and leave the component bus; keeps recorded
        events/metrics readable."""
        self.stop_sampler()
        if self._subscription is not None:
            instrument.unsubscribe(self._subscription)
            self._subscription = None


# ----------------------------------------------------------------------
# Process-wide install point
# ----------------------------------------------------------------------


def install(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Arm a telemetry session (creating one if needed) and return it.

    One session at a time: installing over a live session replaces it
    (the old session stays readable, its sampler is stopped).  While
    installed, the session hears every component announced on
    :mod:`repro.sim.instrument`'s bus and exposes its counters.
    """
    previous = active()
    if previous is not None:
        previous.close()
    session_obj = telemetry if telemetry is not None else Telemetry()
    if session_obj._subscription is None:
        session_obj._subscription = instrument.subscribe(
            component=session_obj._on_component
        )
    instrument.set_telemetry(session_obj)
    return session_obj


def uninstall() -> Optional[Telemetry]:
    """Disarm the active session (idempotent); returns it for inspection."""
    session_obj = active()
    if session_obj is not None:
        session_obj.close()
    instrument.set_telemetry(None)
    return session_obj


def active() -> Optional[Telemetry]:
    """The installed session, if any (``None`` for foreign sinks)."""
    sink = instrument.TELEMETRY
    return sink if isinstance(sink, Telemetry) else None


@contextmanager
def session(telemetry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """``with telemetry.session() as tel: ...`` — arm, run, disarm."""
    session_obj = install(telemetry)
    try:
        yield session_obj
    finally:
        if instrument.TELEMETRY is session_obj:
            uninstall()
        else:  # replaced mid-session; still stop our timers
            session_obj.close()
