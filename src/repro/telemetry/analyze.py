"""Trace-query engine: operation trees, critical paths, stage profiles.

Context propagation (``trace``/``parent`` args on async-span begin
events) turns a recorded JSONL trace into a forest of per-operation
trees — one tree per client-visible operation, spanning client →
nameserver → flowserver → dataservers.  This module rebuilds that
forest and answers the question the flat trace could not: *where did
this append's latency go?*

* :func:`build_trees` — pair begin/end events into :class:`Span` nodes
  and link parent/child edges (reporting dangling parent references);
* :func:`critical_path` — the chain of spans that actually gated an
  operation's completion.  The segments partition the root's interval
  exactly: walking backward from the root's end, the child whose end is
  latest (but not after the cursor) owns the trailing slice, the gap
  between that child's end and the cursor is the parent's own time, and
  recursion repeats inside the child.  Stage durations therefore sum to
  the client-observed latency by construction;
* :func:`stage_profile` — per-stage duration statistics and ASCII
  histograms over every span of a name;
* :func:`render_report` — the ``python -m repro.telemetry analyze``
  output: forest summary, stage profile, top-K slowest operations with
  their critical paths.

Everything is a pure function of the recorded events, so a seeded run
analyzes to byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.tracer import TraceEvent


class AnalyzeError(RuntimeError):
    """A query asked of a trace that cannot answer it."""


@dataclass
class Span:
    """One async span reconstructed from its begin/end events."""

    span_id: str
    name: str
    cat: str
    track: str
    start: float
    end: Optional[float] = None
    trace_id: Optional[str] = None
    parent_id: Optional[str] = None
    args: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class PathSegment:
    """One slice of a critical path (a span's own time or a child's)."""

    name: str
    span_id: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def build_spans(events: Sequence[TraceEvent]) -> List[Span]:
    """Pair ``b``/``e`` events by ``(cat, id)`` into spans, begin order.

    A begin with no matching end stays open (``end is None``).
    """
    spans: List[Span] = []
    open_spans: Dict[Tuple[str, Optional[str]], Span] = {}
    for event in events:
        if event.ph == "b":
            args = dict(event.args) if event.args else {}
            span = Span(
                span_id=str(event.id),
                name=event.name,
                cat=event.cat,
                track=event.track,
                start=event.ts,
                trace_id=(str(args["trace"]) if "trace" in args else None),
                parent_id=(str(args["parent"]) if "parent" in args else None),
                args=args,
            )
            spans.append(span)
            open_spans[(event.cat, event.id)] = span
        elif event.ph == "e":
            span = open_spans.pop((event.cat, event.id), None)
            if span is not None:
                span.end = event.ts
                if event.args:
                    span.args.update(event.args)
    return spans


def build_trees(
    events: Sequence[TraceEvent],
) -> Tuple[List[Span], List[str]]:
    """Link spans into per-operation trees; returns (roots, problems).

    A span whose ``parent`` id names no recorded span is a *dangling*
    reference: it is reported as a problem and treated as a root so its
    subtree still shows up in reports.
    """
    spans = build_spans(events)
    by_id: Dict[str, Span] = {span.span_id: span for span in spans}
    roots: List[Span] = []
    problems: List[str] = []
    for span in spans:
        if span.parent_id is None:
            roots.append(span)
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(
                f"span {span.span_id!r} ({span.name}) references unknown "
                f"parent {span.parent_id!r}"
            )
            roots.append(span)
        else:
            parent.children.append(span)
    return roots, problems


def operations(
    roots: Sequence[Span], name_prefix: Optional[str] = None
) -> List[Span]:
    """Root spans of client-visible operations, by start time.

    ``name_prefix`` filters (e.g. ``"client.append"``); by default every
    root that carries a trace id and closed counts as an operation.
    """
    selected = [
        root
        for root in roots
        if root.end is not None and root.trace_id is not None
    ]
    if name_prefix is not None:
        selected = [r for r in selected if r.name.startswith(name_prefix)]
    selected.sort(key=lambda r: (r.start, r.span_id))
    return selected


def critical_path(root: Span) -> List[PathSegment]:
    """The gating chain of one operation, as an exact partition.

    Walks backward from the root's end: at each cursor the child with
    the latest end at or before it owns the preceding slice (recursing
    into that child), and any gap back to the cursor is the parent's
    own time.  The returned segments tile ``[root.start, root.end]``
    with no gaps or overlaps, so their durations sum to the operation's
    client-observed latency.
    """
    if root.end is None:
        raise AnalyzeError(
            f"span {root.span_id!r} ({root.name}) is still open; no "
            f"critical path"
        )
    segments: List[PathSegment] = []  # built back-to-front, reversed at end

    def walk(span: Span, lo: float, hi: float) -> None:
        cursor = hi
        eligible = sorted(
            (
                child
                for child in span.children
                if child.end is not None
                and child.end <= cursor
                and child.start >= lo
            ),
            key=lambda child: (child.end, child.start, child.span_id),
        )
        while eligible and cursor > lo:
            child = eligible.pop()
            assert child.end is not None
            if child.end > cursor:
                continue
            if child.end < cursor:
                segments.append(
                    PathSegment(
                        name=f"{span.name} (self)",
                        span_id=span.span_id,
                        start=child.end,
                        end=cursor,
                    )
                )
            walk(child, child.start, child.end)
            cursor = child.start
            eligible = [
                c for c in eligible if c.end is not None and c.end <= cursor
            ]
        if cursor > lo:
            label = f"{span.name} (self)" if span.children else span.name
            segments.append(
                PathSegment(
                    name=label, span_id=span.span_id, start=lo, end=cursor
                )
            )

    walk(root, root.start, root.end)
    segments.reverse()
    return segments


# ----------------------------------------------------------------------
# Stage statistics and rendering
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StageStats:
    """Closed-span duration statistics for one span name."""

    name: str
    count: int
    total: float
    mean: float
    p50: float
    p95: float
    max: float
    durations: Tuple[float, ...]


def _percentile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def stage_profile(roots: Sequence[Span]) -> List[StageStats]:
    """Per-span-name duration statistics over every tree, worst first."""
    durations: Dict[str, List[float]] = {}

    def collect(span: Span) -> None:
        if span.end is not None:
            durations.setdefault(span.name, []).append(span.end - span.start)
        for child in span.children:
            collect(child)

    for root in roots:
        collect(root)
    stats: List[StageStats] = []
    for name in sorted(durations):
        values = sorted(durations[name])
        stats.append(
            StageStats(
                name=name,
                count=len(values),
                total=sum(values),
                mean=sum(values) / len(values),
                p50=_percentile(values, 0.50),
                p95=_percentile(values, 0.95),
                max=values[-1],
                durations=tuple(values),
            )
        )
    stats.sort(key=lambda s: (-s.total, s.name))
    return stats


def render_histogram(
    durations: Sequence[float], buckets: int = 8, width: int = 32
) -> List[str]:
    """Linear-bucket ASCII histogram lines for one stage's durations."""
    if not durations:
        return []
    low, high = min(durations), max(durations)
    if high <= low:
        return [f"    [{low:.6f}s] {'#' * min(width, len(durations))} "
                f"({len(durations)})"]
    step = (high - low) / buckets
    counts = [0] * buckets
    for value in durations:
        index = min(buckets - 1, int((value - low) / step))
        counts[index] += 1
    peak = max(counts)
    lines = []
    for index, count in enumerate(counts):
        lo = low + index * step
        hi = lo + step
        bar = "#" * (max(1, round(count / peak * width)) if count else 0)
        lines.append(f"    [{lo:.6f}s, {hi:.6f}s) {bar:<{width}} ({count})")
    return lines


def render_critical_path(root: Span, segments: Sequence[PathSegment]) -> List[str]:
    """Human-readable critical-path table for one operation."""
    assert root.end is not None
    total = root.end - root.start
    lines = []
    for segment in segments:
        share = (segment.duration / total * 100.0) if total > 0 else 0.0
        lines.append(
            f"    {segment.duration:>12.6f}s  {share:>5.1f}%  {segment.name}"
            f"  [{segment.span_id}]"
        )
    path_sum = sum(segment.duration for segment in segments)
    lines.append(
        f"    {path_sum:>12.6f}s  100.0%  = stages sum "
        f"(client-observed latency {total:.6f}s)"
    )
    return lines


def render_report(
    events: Sequence[TraceEvent],
    op: Optional[str] = None,
    top: int = 5,
    histograms: bool = True,
) -> str:
    """The full ``analyze`` report (deterministic text)."""
    roots, problems = build_trees(events)
    ops = operations(roots, name_prefix=op)
    lines: List[str] = []
    span_count = len(build_spans(events))
    lines.append(
        f"operation trees: {len(ops)}"
        + (f" (filter: {op!r})" if op else "")
        + f"; spans: {span_count}; roots: {len(roots)}"
    )
    for problem in problems:
        lines.append(f"  warning: {problem}")
    if not ops:
        lines.append("no closed operation trees found")
        return "\n".join(lines)

    lines.append("")
    lines.append("stage profile (closed spans across all operation trees):")
    lines.append(
        f"  {'stage':<36} {'count':>6} {'mean':>12} {'p95':>12} {'max':>12}"
    )
    profile = stage_profile(ops)
    for stats in profile:
        lines.append(
            f"  {stats.name:<36} {stats.count:>6} {stats.mean:>12.6f} "
            f"{stats.p95:>12.6f} {stats.max:>12.6f}"
        )
    if histograms:
        lines.append("")
        lines.append("per-stage latency histograms:")
        for stats in profile:
            lines.append(f"  {stats.name} ({stats.count} span(s)):")
            lines.extend(render_histogram(stats.durations))

    ranked = sorted(
        ops,
        key=lambda r: (-(r.end - r.start) if r.end is not None else 0.0,
                       r.start, r.span_id),
    )[:top]
    lines.append("")
    lines.append(f"top {len(ranked)} slowest operation(s):")
    for root in ranked:
        assert root.end is not None
        descriptor = ", ".join(
            f"{key}={root.args[key]}"
            for key in sorted(root.args)
            if key not in ("trace", "parent") and not isinstance(
                root.args[key], (dict, list))
        )
        lines.append(
            f"  {root.name} [{root.trace_id}] "
            f"{root.end - root.start:.6f}s ({descriptor})"
        )
        lines.extend(render_critical_path(root, critical_path(root)))
    return "\n".join(lines)
