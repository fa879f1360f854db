"""Fault flight recorder: bounded span/event rings, dumped on failure.

A :class:`FlightRecorder` observes every event the active
:class:`~repro.telemetry.tracer.Tracer` records and keeps the most
recent ones in a bounded ring buffer per component track — cheap enough
to leave armed for a whole experiment.  When something goes wrong — the
fault injector fires an event, a SimSanitizer invariant trips, the
interleaving explorer finds a counterexample — :meth:`trigger` freezes a
causally-linked snapshot, so every failure ships with its own trace.

Two details make the snapshot *causally complete* rather than merely
recent:

* begin events of **still-open spans** are indexed separately and merged
  into every dump, so an operation that has been in flight longer than
  the ring's horizon (exactly the kind a fault aborts) still appears
  with its root span and trace id;
* events keep their global record order (a monotone sequence number), so
  a dump is a deterministic, replay-stable slice of the trace.

Dumps serialize to the same JSON shape as the trace exporters and are
inspected with ``python -m repro.telemetry flight DUMP.json``.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Mapping, Optional, Tuple, Union

from repro.telemetry.tracer import TraceEvent

#: Events retained per track between triggers.
DEFAULT_CAPACITY = 512

#: Serialization format version for dump files.
DUMP_VERSION = 1


@dataclass(frozen=True)
class FlightDump:
    """One frozen snapshot: why it fired plus the surviving events."""

    ts: float
    reason: str
    details: Mapping[str, object]
    events: Tuple[TraceEvent, ...]

    def trace_ids(self) -> Tuple[str, ...]:
        """Distinct operation (root) trace ids appearing in the dump."""
        ids = {
            str(event.args["trace"])
            for event in self.events
            if event.args is not None and "trace" in event.args
        }
        return tuple(sorted(ids))

    def events_of_trace(self, trace_id: str) -> Tuple[TraceEvent, ...]:
        """The dump's events belonging to one operation tree."""
        return tuple(
            event
            for event in self.events
            if event.args is not None and event.args.get("trace") == trace_id
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "version": DUMP_VERSION,
            "ts": self.ts,
            "reason": self.reason,
            "details": {k: self.details[k] for k in sorted(self.details)},
            "events": [event.to_json_dict() for event in self.events],
        }


class FlightRecorder:
    """Bounded per-track rings plus an open-span index.

    Arm one through :meth:`repro.telemetry.Telemetry.attach_flight`; the
    failure hooks reach it via
    :func:`repro.sim.instrument.flight_trigger`.
    """

    def __init__(self, capacity_per_track: int = DEFAULT_CAPACITY) -> None:
        if capacity_per_track <= 0:
            raise ValueError(
                f"capacity_per_track must be positive, got {capacity_per_track}"
            )
        self.capacity_per_track = capacity_per_track
        self._rings: Dict[str, Deque[Tuple[int, TraceEvent]]] = {}
        #: ``(cat, span_id) -> (seq, begin event)`` for spans not yet
        #: ended — merged into every dump so long-running (and aborted,
        #: hence never-ending) operations survive ring eviction.
        self._open: Dict[Tuple[str, Optional[str]], Tuple[int, TraceEvent]] = {}
        self._seq = itertools.count()
        self.events_seen = 0
        self.dumps: List[FlightDump] = []

    def record(self, event: TraceEvent) -> None:
        """Tracer observer: retain the event in its track's ring."""
        self.events_seen += 1
        seq = next(self._seq)
        ring = self._rings.get(event.track)
        if ring is None:
            ring = deque(maxlen=self.capacity_per_track)
            self._rings[event.track] = ring
        ring.append((seq, event))
        if event.ph == "b":
            self._open[(event.cat, event.id)] = (seq, event)
        elif event.ph == "e":
            self._open.pop((event.cat, event.id), None)

    def trigger(self, ts: float, reason: str, **details: object) -> FlightDump:
        """Freeze a snapshot of the rings plus every open span's begin."""
        merged: Dict[int, TraceEvent] = {}
        for ring in self._rings.values():
            for seq, event in ring:
                merged[seq] = event
        for seq, event in self._open.values():
            merged[seq] = event
        events = tuple(event for _, event in sorted(merged.items()))
        dump = FlightDump(
            ts=ts, reason=reason, details=dict(details), events=events
        )
        self.dumps.append(dump)
        return dump


def write_flight_dump(dump: FlightDump, path: Union[str, Path]) -> Path:
    """Serialize one dump as deterministic JSON."""
    out = Path(path)
    out.write_text(
        json.dumps(dump.to_json_dict(), sort_keys=True,
                   separators=(",", ":"), default=str) + "\n",
        encoding="utf-8",
    )
    return out


def read_flight_dump(path: Union[str, Path]) -> FlightDump:
    """Parse a dump file back into a :class:`FlightDump`."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    events = tuple(
        TraceEvent(
            ts=float(item["ts"]),
            ph=str(item["ph"]),
            cat=str(item["cat"]),
            name=str(item["name"]),
            track=str(item.get("track", "sim")),
            id=item.get("id"),
            args=item.get("args"),
        )
        for item in raw.get("events", [])
    )
    return FlightDump(
        ts=float(raw["ts"]),
        reason=str(raw["reason"]),
        details=dict(raw.get("details", {})),
        events=events,
    )
