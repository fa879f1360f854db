"""Trace and metrics exporters: JSONL, Chrome trace-event JSON, Prometheus.

All three renderings are pure functions of the recorded events/metrics —
no wall-clock reads, no environment probes — so a seeded run exports
byte-identical artifacts every time (the repo's determinism contract
extends to its observability layer).

* **JSONL** — one compact JSON object per line, keys sorted; the
  canonical on-disk form and the input to ``python -m repro.telemetry``.
* **Chrome trace JSON** — the Trace Event Format consumed by Perfetto
  (https://ui.perfetto.dev) and ``chrome://tracing``; spans map to
  async ``b``/``e`` (correlated by ``cat`` + ``id``), probes to ``C``
  counter series.  Timestamps convert
  from simulated seconds to integer-friendly microseconds.
* **Prometheus** — text exposition of the metrics registry, for diffing
  runs or scraping a long-lived experiment driver.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import TraceEvent, Tracer

#: pid used for every Chrome event (the sim is one logical process).
TRACE_PID = 1


def _events_of(source: Union[Tracer, Sequence[TraceEvent]]) -> Sequence[TraceEvent]:
    if isinstance(source, Tracer):
        return source.events
    return source


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------


def to_jsonl(source: Union[Tracer, Sequence[TraceEvent]]) -> str:
    """Render events as JSON Lines (sorted keys, compact separators)."""
    lines = [
        json.dumps(event.to_json_dict(), sort_keys=True, separators=(",", ":"))
        for event in _events_of(source)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(source: Union[Tracer, Sequence[TraceEvent]],
                path: Union[str, Path]) -> Path:
    out = Path(path)
    out.write_text(to_jsonl(source), encoding="utf-8")
    return out


def read_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Parse a JSONL trace back into :class:`TraceEvent` records."""
    events: List[TraceEvent] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        events.append(
            TraceEvent(
                ts=float(raw["ts"]),
                ph=str(raw["ph"]),
                cat=str(raw["cat"]),
                name=str(raw["name"]),
                track=str(raw.get("track", "sim")),
                id=raw.get("id"),
                args=raw.get("args"),
            )
        )
    return events


# ----------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto)
# ----------------------------------------------------------------------


def to_chrome_trace(
    source: Union[Tracer, Sequence[TraceEvent]],
    process_name: str = "mayflower-sim",
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """The Trace Event Format "JSON object" flavour.

    Tracks map to synthetic thread ids in first-seen order (with
    ``thread_name`` metadata so Perfetto labels them); the optional
    metrics registry snapshot rides along in ``otherData``.
    """
    events = _events_of(source)
    tids: Dict[str, int] = {}
    #: span id -> its begin event (for flow-arrow synthesis below).
    begin_by_id: Dict[str, TraceEvent] = {}
    trace_events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]

    def tid_for(track: str) -> int:
        tid = tids.get(track)
        if tid is None:
            tid = len(tids) + 1
            tids[track] = tid
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid

    for event in events:
        out: Dict[str, object] = {
            "name": event.name,
            "cat": event.cat,
            "ph": event.ph,
            "ts": event.ts * 1e6,  # sim seconds -> trace microseconds
            "pid": TRACE_PID,
            "tid": tid_for(event.track),
        }
        if event.ph == "i":
            out["s"] = "t"  # instant scope: thread
        if event.ph in ("b", "e"):
            out["id"] = event.id if event.id is not None else "0"
            if event.ph == "b" and event.id is not None:
                begin_by_id[str(event.id)] = event
        if event.args:
            out["args"] = dict(event.args)
        trace_events.append(out)

    # Parent/child span links (the `parent` arg context propagation adds)
    # become Chrome flow arrows: a flow start (`s`) at the parent's begin
    # and a flow finish (`f`, binding point "e"nclosing-slice begin) at
    # the child's begin, correlated by a per-edge flow id.  Perfetto then
    # draws each operation tree as connected arrows across tracks.
    for event in events:
        if event.ph != "b" or not event.args or event.id is None:
            continue
        parent_id = event.args.get("parent")
        if parent_id is None:
            continue
        parent = begin_by_id.get(str(parent_id))
        if parent is None:
            continue  # dangling reference; the validator reports these
        flow_id = f"flow:{event.id}"
        trace_events.append(
            {
                "name": "causal",
                "cat": "flow",
                "ph": "s",
                "id": flow_id,
                "ts": parent.ts * 1e6,
                "pid": TRACE_PID,
                "tid": tid_for(parent.track),
            }
        )
        trace_events.append(
            {
                "name": "causal",
                "cat": "flow",
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "ts": event.ts * 1e6,
                "pid": TRACE_PID,
                "tid": tid_for(event.track),
            }
        )

    other: Dict[str, object] = {"clock": "simulated-seconds-x1e6"}
    if registry is not None:
        other["metrics"] = registry.snapshot()
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    source: Union[Tracer, Sequence[TraceEvent]],
    path: Union[str, Path],
    process_name: str = "mayflower-sim",
    registry: Optional[MetricsRegistry] = None,
) -> Path:
    out = Path(path)
    payload = to_chrome_trace(source, process_name=process_name, registry=registry)
    out.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return out


#: Valid phases in an exported Chrome trace (M = metadata we add;
#: s/t/f = flow start/step/finish arrows for parent/child span links).
CHROME_PHASES = frozenset({"i", "b", "e", "C", "M", "s", "t", "f"})


def validate_chrome_trace(payload: Dict[str, object]) -> List[str]:
    """Schema check for the Trace Event Format (used by tests and CI).

    Returns a list of problems; empty means the trace is loadable by
    Perfetto / ``chrome://tracing``.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    #: async begin-event ids (targets of `args.parent` references).
    begin_ids = {
        str(item["id"])
        for item in events
        if isinstance(item, dict) and item.get("ph") == "b" and "id" in item
    }
    #: flow id -> count of start (s) / finish (f) events, for pairing.
    flow_starts: Dict[str, int] = {}
    flow_finishes: Dict[str, int] = {}
    for index, item in enumerate(events):
        if not isinstance(item, dict):
            problems.append(f"event {index}: not an object")
            continue
        where = f"event {index} ({item.get('name')!r})"
        for key in ("name", "ph", "pid", "tid"):
            if key not in item:
                problems.append(f"{where}: missing {key!r}")
        ph = item.get("ph")
        if ph not in CHROME_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if ph != "M":
            ts = item.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: ts missing or not numeric")
            if "cat" not in item:
                problems.append(f"{where}: missing 'cat'")
        if ph in ("b", "e") and "id" not in item:
            problems.append(f"{where}: async event without 'id'")
        if ph == "b":
            span_args = item.get("args")
            if isinstance(span_args, dict) and "parent" in span_args:
                parent_ref = str(span_args["parent"])
                if parent_ref not in begin_ids:
                    problems.append(
                        f"{where}: dangling parent reference {parent_ref!r}"
                    )
        if ph in ("s", "t", "f"):
            flow_id = item.get("id")
            if flow_id is None:
                problems.append(f"{where}: flow event without 'id'")
            else:
                key = str(flow_id)
                if ph == "s":
                    flow_starts[key] = flow_starts.get(key, 0) + 1
                elif ph == "f":
                    flow_finishes[key] = flow_finishes.get(key, 0) + 1
            if ph == "f" and item.get("bp") not in (None, "e"):
                problems.append(
                    f"{where}: flow finish with bad binding point "
                    f"{item.get('bp')!r}"
                )
        if ph == "i" and item.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant without a valid scope 's'")
        if ph == "C" and not isinstance(item.get("args"), dict):
            problems.append(f"{where}: counter without args dict")
    for flow_id in sorted(set(flow_starts) | set(flow_finishes)):
        starts = flow_starts.get(flow_id, 0)
        finishes = flow_finishes.get(flow_id, 0)
        if starts != finishes:
            problems.append(
                f"flow {flow_id!r}: {starts} start(s) but {finishes} finish(es)"
            )
    return problems


# ----------------------------------------------------------------------
# Prometheus
# ----------------------------------------------------------------------


def render_prometheus(registry: MetricsRegistry) -> str:
    """Text exposition format of every metric in the registry."""
    return registry.render_prometheus()


def write_prometheus(registry: MetricsRegistry, path: Union[str, Path]) -> Path:
    out = Path(path)
    out.write_text(render_prometheus(registry), encoding="utf-8")
    return out
