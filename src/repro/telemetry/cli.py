"""``python -m repro.telemetry`` — inspect recorded traces.

Subcommands::

    summarize TRACE.jsonl             # event counts, categories, sim-time range
    analyze   TRACE.jsonl [--op PREFIX] [-n N]  # slowest ops, critical paths

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

from repro.telemetry.analyze import build_spans, render_report
from repro.telemetry.exporters import read_jsonl
from repro.telemetry.tracer import TraceEvent


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
    spans = build_spans(events)
    durations = [s.end - s.start for s in spans if s.end is not None]
    if durations:
        print(f"async spans: {len(durations)} closed, "
              f"mean {sum(durations) / len(durations):.6f}s, "
              f"max {max(durations):.6f}s")
    open_begins = len(spans) - len(durations)
    if open_begins:
        print(f"async spans left open: {open_begins}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    print(f"trace: {args.trace}")
    print(render_report(events, op=args.op, top=args.count,
                        histograms=not args.no_histograms))
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
