"""Unit tests for counters, gauges, histograms and the sampler."""

import math

import pytest

from repro.sim.engine import EventLoop
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    TimeSeriesSampler,
    Tracer,
)


def test_counter_reads_its_callback_live():
    box = {"n": 3}
    c = Counter("reads_total", lambda: box["n"])
    assert c.value == 3.0
    box["n"] = 5
    assert c.value == 5.0


def test_gauge_set():
    g = Gauge("depth")
    assert g.value == 0.0
    g.set(4.0)
    assert g.value == 4.0


def test_callback_gauge_reads_live_and_rejects_set():
    box = {"n": 7}
    g = Gauge("live", callback=lambda: box["n"])
    assert g.value == 7.0
    box["n"] = 9
    assert g.value == 9.0
    with pytest.raises(MetricError):
        g.set(1.0)


def test_histogram_bucketing():
    h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(value)
    # Raw per-bucket counts: <=0.1, <=1, <=10, +Inf overflow.
    assert h.bucket_counts == [1, 2, 1, 1]
    assert h.cumulative_counts() == [1, 3, 4, 5]
    assert h.count == 5
    assert h.sum == pytest.approx(56.05)


def test_histogram_boundary_value_goes_to_lower_bucket():
    h = Histogram("lat", buckets=(1.0, 2.0))
    h.observe(1.0)  # le semantics: exactly-on-bound counts in that bucket
    assert h.bucket_counts == [1, 0, 0]


def test_histogram_rejects_unsorted_or_empty_buckets():
    with pytest.raises(MetricError):
        Histogram("bad", buckets=(2.0, 1.0))
    with pytest.raises(MetricError):
        Histogram("bad", buckets=())


def test_registry_get_or_create_returns_same_object():
    registry = MetricsRegistry()
    first = registry.counter("a", lambda: 1)
    assert registry.counter("a", lambda: 2) is first
    assert first.value == 1.0
    assert registry.gauge("g") is registry.gauge("g")


def test_registry_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("a", lambda: 0)
    with pytest.raises(MetricError, match="already registered"):
        registry.gauge("a")


@pytest.mark.parametrize("name", [
    "flowserver_fanout_chain-static_total", "", "1st_total", "a b", "reads{x}",
])
def test_registry_rejects_illegal_prometheus_names(name):
    registry = MetricsRegistry()
    with pytest.raises(MetricError, match="not a legal Prometheus metric name"):
        registry.gauge(name)
    with pytest.raises(MetricError, match="not a legal Prometheus metric name"):
        registry.histogram(name)
    assert registry.snapshot() == {}


def test_registry_accepts_legal_prometheus_names():
    registry = MetricsRegistry()
    for name in ("a", "_a", ":a", "rpc:calls_total", "A9_b:c"):
        registry.gauge(name)
    assert list(registry.snapshot()) == ["a", "_a", ":a", "rpc:calls_total", "A9_b:c"]


def test_registry_value_and_missing_metric():
    registry = MetricsRegistry()
    registry.counter("a", lambda: 3)
    assert registry.value("a") == 3.0
    with pytest.raises(KeyError):
        registry.value("nope")
    registry.histogram("h")
    with pytest.raises(MetricError):
        registry.value("h")


def test_render_prometheus_golden():
    registry = MetricsRegistry()
    registry.counter("reads_total", lambda: 3, "Total reads")
    registry.gauge("depth").set(1.5)
    h = registry.histogram("lat", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    assert registry.render_prometheus() == (
        "# HELP reads_total Total reads\n"
        "# TYPE reads_total counter\n"
        "reads_total 3\n"
        "# TYPE depth gauge\n"
        "depth 1.5\n"
        "# TYPE lat histogram\n"
        'lat_bucket{le="0.1"} 1\n'
        'lat_bucket{le="1"} 2\n'
        'lat_bucket{le="+Inf"} 2\n'
        "lat_sum 0.55\n"
        "lat_count 2\n"
    )


def test_render_prometheus_nan_and_inf():
    registry = MetricsRegistry()
    registry.gauge("ttr", callback=lambda: math.nan)
    registry.gauge("cap", callback=lambda: math.inf)
    text = registry.render_prometheus()
    assert "ttr NaN" in text
    assert "cap +Inf" in text


def test_snapshot_expands_histograms():
    registry = MetricsRegistry()
    registry.counter("a", lambda: 1)
    registry.histogram("h", buckets=(1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert snap["a"] == 1.0
    assert snap["h"] == {"sum": 0.5, "count": 1, "buckets": {"1.0": 1, "+Inf": 1}}


def test_sampler_records_series_gauge_and_counter_events():
    loop = EventLoop()
    tracer = Tracer()
    registry = MetricsRegistry()
    sampler = TimeSeriesSampler(loop, interval=1.0, tracer=tracer, registry=registry)
    box = {"n": 0.0}
    sampler.add_probe("depth", lambda: box["n"])
    sampler.start()
    loop.call_at(1.5, lambda: box.update(n=4.0))
    loop.run(until=3.5)
    sampler.stop()
    assert sampler.samples_taken == 3
    assert sampler.series["depth"] == [(1.0, 0.0), (2.0, 4.0), (3.0, 4.0)]
    assert registry.value("depth") == 4.0
    counters = [e for e in tracer.events if e.ph == "C"]
    assert [e.args["value"] for e in counters] == [0.0, 4.0, 4.0]


def test_sampler_stop_lets_loop_drain():
    loop = EventLoop()
    sampler = TimeSeriesSampler(loop, interval=1.0)
    sampler.add_probe("x", lambda: 0.0)
    sampler.start()
    loop.run(until=2.5)
    sampler.stop()
    loop.run()  # would never return if the timer were still re-arming
    assert loop.peek_time() is None
