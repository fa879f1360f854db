"""``python -m repro.telemetry`` — inspect recorded traces.

Subcommands::

    summarize TRACE.jsonl             # event counts, categories, sim-time range
    analyze   TRACE.jsonl [--op PREFIX] [-n N]  # slowest ops, critical paths
    flight    DUMP.json [--trace ID]  # inspect a flight-recorder dump

The input is always the JSONL stream written by
:func:`repro.telemetry.exporters.write_jsonl` (the runner's ``--trace``
flag produces one as ``trace.jsonl``, next to the Chrome trace
``trace.json`` for Perfetto).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter as TallyCounter
from pathlib import Path
from typing import List, Optional, Sequence

from repro.telemetry.analyze import render_report
from repro.telemetry.exporters import read_jsonl
from repro.telemetry.flight import read_flight_dump
from repro.telemetry.tracer import TraceEvent, pair_async_spans


def _load(path: str) -> List[TraceEvent]:
    trace_path = Path(path)
    if not trace_path.exists():
        raise SystemExit(f"error: no such trace file: {path}")
    return read_jsonl(trace_path)


def cmd_summarize(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    print(f"trace: {args.trace}")
    print(f"events: {len(events)}")
    if not events:
        return 0
    t_low = min(e.ts for e in events)
    t_high = max(e.ts for e in events)
    print(f"sim time range: {t_low:.6f}s .. {t_high:.6f}s "
          f"(span {t_high - t_low:.6f}s)")
    by_phase = TallyCounter(e.ph for e in events)
    print("phases: " + ", ".join(
        f"{ph}={by_phase[ph]}" for ph in sorted(by_phase)))
    by_cat = TallyCounter(e.cat for e in events)
    print("categories:")
    for cat, count in sorted(by_cat.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {cat:<12} {count}")
    by_track = TallyCounter(e.track for e in events)
    print("tracks: " + ", ".join(
        f"{track}={by_track[track]}" for track in sorted(by_track)))
    pairs = pair_async_spans(events)
    if pairs:
        durations = [end.ts - begin.ts for begin, end in pairs]
        print(f"async spans: {len(pairs)} closed, "
              f"mean {sum(durations) / len(durations):.6f}s, "
              f"max {max(durations):.6f}s")
    open_begins = len([e for e in events if e.ph == "b"]) - len(pairs)
    if open_begins:
        print(f"async spans left open: {open_begins}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    print(f"trace: {args.trace}")
    print(render_report(events, op=args.op, top=args.count,
                        histograms=not args.no_histograms))
    return 0


def cmd_flight(args: argparse.Namespace) -> int:
    dump_path = Path(args.dump)
    if not dump_path.exists():
        raise SystemExit(f"error: no such flight dump: {args.dump}")
    dump = read_flight_dump(dump_path)
    print(f"flight dump: {args.dump}")
    print(f"reason: {dump.reason} at t={dump.ts:.6f}s")
    if dump.details:
        detail = ", ".join(f"{k}={dump.details[k]}" for k in sorted(dump.details))
        print(f"details: {detail}")
    print(f"events: {len(dump.events)}")
    trace_ids = dump.trace_ids()
    print(f"operation traces captured: {len(trace_ids)}")
    if args.trace_id is not None:
        selected = dump.events_of_trace(args.trace_id)
        if not selected:
            raise SystemExit(
                f"error: no events for trace {args.trace_id!r} in dump")
        for event in selected:
            span_id = event.id if event.id is not None else "-"
            print(f"  {event.ts:>12.6f} {event.ph} {event.cat:<10} "
                  f"{event.name:<32} id={span_id}")
        return 0
    for trace_id in trace_ids:
        selected = dump.events_of_trace(trace_id)
        begins = [e for e in selected if e.ph == "b"]
        ends = {(e.cat, e.id) for e in selected if e.ph == "e"}
        open_count = len(
            [e for e in begins if (e.cat, e.id) not in ends])
        root = begins[0].name if begins else "?"
        print(f"  {trace_id:<16} {root:<24} spans={len(begins)} "
              f"open={open_count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Inspect deterministic simulation traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="event counts and time range")
    p_sum.add_argument("trace", help="JSONL trace file")
    p_sum.set_defaults(func=cmd_summarize)

    p_an = sub.add_parser(
        "analyze",
        help="operation trees, critical paths, per-stage histograms")
    p_an.add_argument("trace", help="JSONL trace file (with propagation)")
    p_an.add_argument("--op", default=None,
                      help="operation name prefix (e.g. client.append)")
    p_an.add_argument("-n", "--count", type=int, default=5,
                      help="how many slowest operations to expand")
    p_an.add_argument("--no-histograms", action="store_true",
                      help="skip the per-stage histogram section")
    p_an.set_defaults(func=cmd_analyze)

    p_fl = sub.add_parser("flight", help="inspect a flight-recorder dump")
    p_fl.add_argument("dump", help="flight dump JSON file")
    p_fl.add_argument("--trace", dest="trace_id", default=None,
                      help="print every event of one operation trace")
    p_fl.set_defaults(func=cmd_flight)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else sys.argv[1:])
    try:
        result = args.func(args)
    except BrokenPipeError:
        # Output piped into e.g. `head` which exited early; not an error.
        # Point stdout at devnull so the interpreter's exit-time flush
        # doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    assert isinstance(result, int)
    return result
