"""Counter / Gauge / Histogram primitives and a deterministic registry.

Metrics are plain Python objects with no locks, no background threads and
no wall-clock reads: counters read the components' own attributes,
gauges and histograms change only when simulation code calls
``set``/``observe``, and the registry iterates in insertion order, so
rendering is bit-reproducible for a given seed.

A :class:`TimeSeriesSampler` turns callback probes (link utilization,
tracked-flow count, ...) into periodic samples on the simulated clock —
recorded both as Chrome counter events for Perfetto and as in-memory
series for the exporters.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.engine import EventLoop, PeriodicTimer

from repro.telemetry.tracer import Tracer

#: Default histogram bucket upper bounds (seconds-ish scale, +Inf implied).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0
)


class MetricError(ValueError):
    """Invalid metric construction or a name/type collision."""


#: A legal Prometheus metric name; anything else makes a scraper reject
#: the whole exposition.
_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


class Counter:
    """A monotonically increasing count, read live from a component.

    The component's own attribute is the only copy of the fact; the
    counter reads it through ``callback`` whenever a dump is taken.
    """

    kind = "counter"

    def __init__(self, name: str, callback: Callable[[], float],
                 help: str = "") -> None:
        self.name = name
        self.help = help
        self._callback = callback

    @property
    def value(self) -> float:
        return float(self._callback())


class Gauge:
    """A value that goes up and down; optionally callback-backed.

    A callback gauge reads its value live from a component (e.g.
    ``flowserver.tracked_flow_count``) so registries can expose existing
    counters without double bookkeeping.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self._callback = callback
        self._value = 0.0

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value

    def set(self, value: float) -> None:
        if self._callback is not None:
            raise MetricError(f"gauge {self.name} is callback-backed")
        self._value = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics: ``le`` bounds)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(bounds):
            raise MetricError(f"histogram {name} buckets must be sorted: {bounds}")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per ``le`` bound (Prometheus export shape)."""
        total = 0
        out = []
        for raw in self.bucket_counts:
            total += raw
            out.append(total)
        return out


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create registry keyed by metric name.

    Creation order is preserved, so the Prometheus dump and snapshots are
    deterministic.  Re-requesting an existing metric returns the same
    object; requesting it with a different kind raises, and so does a
    name Prometheus would not accept.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(
        self, kind: str, name: str, factory: Callable[[], Metric]
    ) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise MetricError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested as {kind}"
                )
            return existing
        if not _METRIC_NAME.fullmatch(name):
            raise MetricError(f"{name!r} is not a legal Prometheus metric name")
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, callback: Callable[[], float],
                help: str = "") -> Counter:
        metric = self._get_or_create(
            "counter", name, lambda: Counter(name, callback, help)
        )
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        metric = self._get_or_create(
            "gauge", name, lambda: Gauge(name, help, callback)
        )
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            "histogram", name, lambda: Histogram(name, help, buckets)
        )
        assert isinstance(metric, Histogram)
        return metric

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def value(self, name: str) -> float:
        """The scalar value of a counter/gauge (raises if absent)."""
        metric = self.get(name)
        if metric is None:
            raise KeyError(f"no metric {name!r}")
        if isinstance(metric, Histogram):
            raise MetricError(f"metric {name!r} is a histogram")
        return metric.value

    def snapshot(self) -> Dict[str, object]:
        """Name -> value dict (histograms expand to sum/count/buckets)."""
        out: Dict[str, object] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                out[name] = {
                    "sum": metric.sum,
                    "count": metric.count,
                    "buckets": dict(
                        zip([str(b) for b in metric.bounds] + ["+Inf"],
                            metric.cumulative_counts())
                    ),
                }
            else:
                out[name] = metric.value
        return out

    # ------------------------------------------------------------------
    # Prometheus text rendering
    # ------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (0.0.4), deterministic."""
        lines: List[str] = []
        for name, metric in self._metrics.items():
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = metric.cumulative_counts()
                for bound, count in zip(metric.bounds, cumulative[:-1]):
                    lines.append(
                        f'{name}_bucket{{le="{_format_value(bound)}"}} {count}'
                    )
                lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative[-1]}')
                lines.append(f"{name}_sum {_format_value(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
            else:
                lines.append(f"{name} {_format_value(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    """Prometheus-style number formatting (ints render without dot)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class TimeSeriesSampler:
    """Periodic probe sampling on the simulated clock.

    Each ``interval`` seconds every registered probe is called (in
    registration order) and its value is recorded three ways: an
    in-memory ``(t, value)`` series, a registry gauge, and — when a
    tracer is attached — a Chrome counter event for Perfetto's
    time-series panes.

    The sampler is an ordinary :class:`PeriodicTimer` client, so it must
    be stopped (or the owning telemetry session closed) before draining
    an event loop to idle.
    """

    def __init__(
        self,
        loop: EventLoop,
        interval: float = 1.0,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._loop = loop
        self.interval = interval
        self._tracer = tracer
        self._registry = registry
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self.series: Dict[str, List[Tuple[float, float]]] = {}
        self.samples_taken = 0
        self._timer: Optional[PeriodicTimer] = None

    def add_probe(self, name: str, probe: Callable[[], float]) -> None:
        self._probes.append((name, probe))
        self.series.setdefault(name, [])

    def start(self) -> None:
        if self._timer is None or self._timer.stopped:
            self._timer = PeriodicTimer(self._loop, self.interval, self.sample_once)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def sample_once(self) -> None:
        now = self._loop.now
        for name, probe in self._probes:
            value = float(probe())
            self.series[name].append((now, value))
            if self._registry is not None:
                self._registry.gauge(name).set(value)
            if self._tracer is not None:
                self._tracer.counter(now, name, {"value": value})
        self.samples_taken += 1
