"""Statistics for experiment results.

The paper reports average and 95th-percentile job completion times; error
bars are 95% confidence intervals — Student-t for raw times (Fig. 6) and
Fieller's method for the normalized ratios (Fig. 4/5, citing [30]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (q in [0, 100]) with linear interpolation."""
    if not samples:
        raise ValueError("no samples")
    import numpy as np  # in-function so that importing repro.experiments skips it

    return float(np.percentile(np.asarray(samples, dtype=float), q))


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """(mean, low, high) Student-t confidence interval for the mean."""
    import numpy as np
    from scipy import stats  # ~1 s to import; only the two CI helpers need it

    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("no samples")
    mean = float(data.mean())
    if data.size == 1:
        return mean, mean, mean
    sem = float(stats.sem(data))
    if sem == 0:
        return mean, mean, mean
    half = sem * float(stats.t.ppf((1 + confidence) / 2, data.size - 1))
    return mean, mean - half, mean + half


def fieller_ratio_ci(
    numerator: Sequence[float],
    denominator: Sequence[float],
    confidence: float = 0.95,
) -> Tuple[float, float, float]:
    """Fieller's theorem CI for the ratio of two independent sample means.

    Returns ``(ratio, low, high)``.  When the denominator mean is not
    significantly different from zero the interval can be unbounded; this
    implementation returns ``(ratio, nan, nan)`` in that degenerate case.
    """
    import numpy as np
    from scipy import stats  # see mean_confidence_interval

    a = np.asarray(numerator, dtype=float)
    b = np.asarray(denominator, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("no samples")
    mean_a, mean_b = float(a.mean()), float(b.mean())
    if mean_b == 0:
        raise ValueError("denominator mean is zero")
    ratio = mean_a / mean_b
    if a.size < 2 or b.size < 2:
        return ratio, ratio, ratio

    var_a = float(a.var(ddof=1)) / a.size
    var_b = float(b.var(ddof=1)) / b.size
    df = a.size + b.size - 2
    t = float(stats.t.ppf((1 + confidence) / 2, df))

    # Fieller: solve g = t^2 var_b / mean_b^2; independent samples (cov=0).
    g = t * t * var_b / (mean_b * mean_b)
    if g >= 1:
        return ratio, math.nan, math.nan
    half = (
        t
        / mean_b
        * math.sqrt(var_a + ratio * ratio * var_b - g * var_a)
    )
    center = ratio / (1 - g)
    spread = half / (1 - g)
    return ratio, center - spread, center + spread


@dataclass(frozen=True)
class Summary:
    """Summary statistics of one scheme's completion times."""

    count: int
    mean: float
    mean_ci_low: float
    mean_ci_high: float
    p95: float
    p99: float
    maximum: float

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "mean_ci_low": self.mean_ci_low,
            "mean_ci_high": self.mean_ci_high,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize(samples: Sequence[float], confidence: float = 0.95) -> Summary:
    """Standard summary of a completion-time sample."""
    mean, low, high = mean_confidence_interval(samples, confidence)
    return Summary(
        count=len(samples),
        mean=mean,
        mean_ci_low=low,
        mean_ci_high=high,
        p95=percentile(samples, 95),
        p99=percentile(samples, 99),
        maximum=max(samples),
    )


def normalized_to(
    samples: Sequence[float],
    baseline: Sequence[float],
    confidence: float = 0.95,
) -> Tuple[float, float, float]:
    """Mean ratio sample/baseline with a Fieller CI (the Fig. 4/5 bars)."""
    return fieller_ratio_ci(samples, baseline, confidence)


@dataclass(frozen=True)
class ResilienceSummary:
    """Degraded-mode and recovery telemetry for one fault-injected run.

    Aggregates the counters the resilience benchmarks assert on: how much
    damage the storm did (aborted flows, lost polls), how the system
    responded (degraded selections, retries, resumptions) and how fast it
    healed (mean time-to-recover, availability).
    """

    jobs_total: int
    jobs_completed: int
    faults_applied: int
    flows_aborted: int
    flows_aborted_by_faults: int
    degraded_selections: int
    degraded_entries: int
    unreachable_path_selections: int
    mean_time_to_recover: Optional[float]
    polls_lost: int
    poll_errors: int
    rpc_calls_timed_out: int
    read_retries: int
    read_failovers: int
    read_resumptions: int
    bytes_resumed: int

    @property
    def availability(self) -> float:
        """Fraction of jobs that completed despite the storm."""
        if self.jobs_total == 0:
            return 1.0
        return self.jobs_completed / self.jobs_total

    def as_dict(self) -> dict:
        return {
            "jobs_total": self.jobs_total,
            "jobs_completed": self.jobs_completed,
            "availability": self.availability,
            "faults_applied": self.faults_applied,
            "flows_aborted": self.flows_aborted,
            "flows_aborted_by_faults": self.flows_aborted_by_faults,
            "degraded_selections": self.degraded_selections,
            "degraded_entries": self.degraded_entries,
            "unreachable_path_selections": self.unreachable_path_selections,
            "mean_time_to_recover": self.mean_time_to_recover,
            "polls_lost": self.polls_lost,
            "poll_errors": self.poll_errors,
            "rpc_calls_timed_out": self.rpc_calls_timed_out,
            "read_retries": self.read_retries,
            "read_failovers": self.read_failovers,
            "read_resumptions": self.read_resumptions,
            "bytes_resumed": self.bytes_resumed,
        }


def resilience_summary(
    cluster,
    clients,
    injector=None,
    jobs_total: int = 0,
    jobs_completed: int = 0,
    registry=None,
) -> ResilienceSummary:
    """Collect a :class:`ResilienceSummary` from a live cluster's parts.

    ``clients`` is any iterable of :class:`repro.fs.client.MayflowerClient`
    instances whose per-client retry counters should be aggregated.

    The counters are read through a telemetry metrics registry of
    callback gauges (see :func:`repro.telemetry.bind_resilience_metrics`)
    rather than by reaching into each component, so the summary and any
    Prometheus dump of the same run always agree.  Pass ``registry`` to
    reuse gauges bound earlier (e.g. by a ``--trace`` session); by
    default a throwaway registry is bound here.
    """
    from repro.telemetry import MetricsRegistry, bind_resilience_metrics

    clients = list(clients)
    fs = cluster.flowserver
    if registry is None:
        registry = MetricsRegistry()
    if registry.get("faults_applied") is None:
        bind_resilience_metrics(registry, cluster, clients, injector)

    def count(name: str) -> int:
        return int(registry.value(name))

    ttr = registry.value("time_to_recover_seconds")
    return ResilienceSummary(
        jobs_total=jobs_total,
        jobs_completed=jobs_completed,
        faults_applied=count("faults_applied"),
        flows_aborted=count("flows_aborted"),
        flows_aborted_by_faults=count("flows_aborted_by_faults"),
        degraded_selections=count("degraded_selections"),
        degraded_entries=count("degraded_entries"),
        unreachable_path_selections=count("unreachable_path_selections"),
        mean_time_to_recover=None if fs is None or math.isnan(ttr) else ttr,
        polls_lost=count("polls_lost"),
        poll_errors=count("poll_errors"),
        rpc_calls_timed_out=count("rpc_calls_timed_out"),
        read_retries=count("read_retries"),
        read_failovers=count("read_failovers"),
        read_resumptions=count("read_resumptions"),
        bytes_resumed=count("bytes_resumed"),
    )
