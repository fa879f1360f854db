"""Deterministic observability for the Mayflower simulation.

Everything here runs on the simulated clock: spans and events record the
timestamps callers read off the event loop, the metrics registry's
counters read the components' own attributes, and the exporters are pure
functions of what was recorded.  Same seed, same trace — byte for byte.

Quick tour::

    import repro.telemetry as telemetry

    with telemetry.session() as tel:
        run_experiment(...)               # emit sites find the session
        telemetry.write_jsonl(tel.tracer, "trace.jsonl")
        telemetry.write_chrome_trace(tel.tracer, "trace.json",
                                     registry=tel.metrics)

then ``python -m repro.telemetry summarize trace.jsonl`` or load
``trace.json`` in https://ui.perfetto.dev.  See DESIGN.md §Telemetry.
"""

from repro.sim.instrument import TraceContext
from repro.telemetry.analyze import (
    PathSegment,
    Span,
    StageStats,
    build_spans,
    build_trees,
    critical_path,
    operations,
    render_report,
    stage_profile,
)
from repro.telemetry.bind import bind_standard_probes
from repro.telemetry.exporters import (
    read_jsonl,
    render_prometheus,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    TimeSeriesSampler,
)
from repro.telemetry.session import (
    Telemetry,
    active,
    install,
    session,
    uninstall,
)
from repro.telemetry.tracer import TraceEvent, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "PathSegment",
    "Span",
    "StageStats",
    "Telemetry",
    "TimeSeriesSampler",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "active",
    "bind_standard_probes",
    "build_spans",
    "build_trees",
    "critical_path",
    "install",
    "operations",
    "read_jsonl",
    "render_prometheus",
    "render_report",
    "session",
    "stage_profile",
    "to_chrome_trace",
    "to_jsonl",
    "uninstall",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
