"""Deterministic spans and events on the simulated clock.

Every timestamp a :class:`Tracer` records comes from the caller (who reads
it off an :class:`~repro.sim.engine.EventLoop`), never from the host
clock, so two runs with the same seed produce byte-identical traces.

Two event shapes cover the whole taxonomy:

* **instants** (``ph="i"``) — a point in simulated time (a selection
  decision, a fault firing, a poll cycle, a freeze transition);
* **async spans** (``ph="b"``/``"e"``) — a region that crosses engine
  events (a flow transfer, an RPC round trip, a client read), correlated
  by ``(cat, id)`` exactly as Chrome trace events are.

Counter samples (``ph="C"``) carry a dict of named series for the
time-series panes in Perfetto.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.sim import instrument
from repro.sim.instrument import TraceContext

@dataclass(frozen=True)
class TraceEvent:
    """One recorded event (immutable, JSON-ready)."""

    ts: float
    ph: str
    cat: str
    name: str
    track: str
    id: Optional[str] = None
    args: Optional[Mapping[str, object]] = None

    def to_json_dict(self) -> Dict[str, object]:
        """A plain dict with deterministic content (for the exporters)."""
        out: Dict[str, object] = {
            "ts": self.ts,
            "ph": self.ph,
            "cat": self.cat,
            "name": self.name,
            "track": self.track,
        }
        if self.id is not None:
            out["id"] = self.id
        if self.args:
            out["args"] = dict(self.args)
        return out


class Tracer:
    """An append-only, in-memory event buffer on the sim clock.

    The tracer itself draws no randomness and reads no clock: callers
    supply every timestamp, so recording is exactly as deterministic as
    the simulation that drives it.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._id_seqs: Dict[str, "itertools.count[int]"] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def instant(
        self, ts: float, name: str, cat: str, track: str = "sim", **args: object
    ) -> None:
        """Record a point event."""
        self._record(
            TraceEvent(ts=ts, ph="i", cat=cat, name=name, track=track,
                       args=args or None)
        )

    def counter(
        self, ts: float, name: str, values: Mapping[str, float], track: str = "metrics"
    ) -> None:
        """Record a counter sample (one dict of named series)."""
        self._record(
            TraceEvent(ts=ts, ph="C", cat="metric", name=name, track=track,
                       args=dict(values))
        )

    def begin(
        self,
        ts: float,
        name: str,
        cat: str,
        span_id: str,
        track: str = "sim",
        **args: object,
    ) -> None:
        """Open an async span; pair with :meth:`end` via ``(cat, span_id)``."""
        self._record(
            TraceEvent(ts=ts, ph="b", cat=cat, name=name, track=track,
                       id=span_id, args=args or None)
        )

    def end(
        self,
        ts: float,
        name: str,
        cat: str,
        span_id: str,
        track: str = "sim",
        **args: object,
    ) -> None:
        """Close the async span opened with the same ``(cat, span_id)``."""
        self._record(
            TraceEvent(ts=ts, ph="e", cat=cat, name=name, track=track,
                       id=span_id, args=args or None)
        )

    # ------------------------------------------------------------------
    # Causally-linked spans (trace / parent threading)
    # ------------------------------------------------------------------

    def start_span(
        self,
        ts: float,
        name: str,
        cat: str,
        track: str = "sim",
        span_id: Optional[str] = None,
        **args: object,
    ) -> TraceContext:
        """Open an async span parented under the ambient trace context.

        The begin event's ``args`` carry the span's ``trace`` (root
        operation id) and, for non-roots, its ``parent`` span id — the
        edges :mod:`repro.telemetry.analyze` rebuilds operation trees
        from.  Returns the child :class:`TraceContext`; the caller
        decides whether to install it ambiently (via
        :func:`repro.sim.instrument.set_context`) for the span's dynamic
        extent.
        """
        if span_id is None:
            span_id = self.next_id("span")
        ctx = instrument.derive_context(span_id)
        linked: Dict[str, object] = {"trace": ctx.trace_id}
        if ctx.parent_id is not None:
            linked["parent"] = ctx.parent_id
        linked.update(args)
        self.begin(ts, name, cat, span_id, track, **linked)
        return ctx

    def finish_span(
        self,
        ts: float,
        ctx: TraceContext,
        name: str,
        cat: str,
        track: str = "sim",
        **args: object,
    ) -> None:
        """Close the span :meth:`start_span` opened for ``ctx``."""
        self.end(ts, name, cat, ctx.span_id, track, **args)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def next_id(self, prefix: str) -> str:
        """A deterministic fresh span id (``prefix`` + counter)."""
        seq = self._id_seqs.get(prefix)
        if seq is None:
            seq = itertools.count()
            self._id_seqs[prefix] = seq
        return f"{prefix}{next(seq)}"

    def __len__(self) -> int:
        return len(self.events)

