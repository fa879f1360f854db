"""Wire live simulation components into samplers and registries.

Two jobs live here, both read-only with respect to the simulation:

* :func:`bind_standard_probes` registers the periodic time-series probes
  the paper's figures care about (link utilization, tracked/frozen flow
  counts, in-flight transfer count) on a
  :class:`~repro.telemetry.metrics.TimeSeriesSampler`;
* :func:`bind_resilience_metrics` exposes the cross-stack resilience
  counters as callback gauges, so
  :func:`repro.experiments.metrics.resilience_summary` (and any
  Prometheus dump) reads one registry instead of spelunking through five
  component objects.

Everything is callback-based: no values are copied at bind time, reads
happen when a sample fires or a summary is taken.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, List, Optional

from repro.net.topology import Topology
from repro.net.view import NetworkView
from repro.telemetry.metrics import MetricsRegistry, TimeSeriesSampler

#: Gauge value standing in for "not applicable yet" (no recoveries seen).
NOT_AVAILABLE = math.nan


def _frozen_flow_count(flowserver: Any) -> float:
    table = flowserver.state
    return float(sum(1 for f in table.flows.values() if f.freezed))


def bind_standard_probes(
    sampler: TimeSeriesSampler,
    *,
    network: Optional[NetworkView] = None,
    topology: Optional[Topology] = None,
    flowserver: Optional[Any] = None,
) -> List[str]:
    """Attach the standard probe set; returns the probe names added.

    ``network``/``topology`` enable the link-utilization probes (mean and
    max fraction of capacity across up links); ``flowserver`` enables the
    tracked/frozen flow-count probes.  Missing components simply skip
    their probes, so call sites pass whatever the scheme under test has.

    ``network`` is typed as the read-only
    :class:`~repro.net.view.NetworkView`; when the concrete network also
    carries an incremental rate engine (:class:`FlowNetwork` does), its
    solver counters are exposed too, as is the Flowserver's cost-model
    cache hit rate.
    """
    added: List[str] = []

    if network is not None and topology is not None:
        link_ids = sorted(topology.links)

        def _utilizations() -> List[float]:
            network.snapshot_progress()
            out = []
            for link_id in link_ids:
                link = topology.links[link_id]
                if not link.up or link.capacity_bps <= 0:
                    continue
                out.append(network.link_utilization_bps(link_id) / link.capacity_bps)
            return out

        def _mean_util() -> float:
            values = _utilizations()
            return sum(values) / len(values) if values else 0.0

        def _max_util() -> float:
            values = _utilizations()
            return max(values) if values else 0.0

        sampler.add_probe("link_utilization_mean", _mean_util)
        sampler.add_probe("link_utilization_max", _max_util)
        added += ["link_utilization_mean", "link_utilization_max"]

    engine = getattr(network, "rate_engine", None)
    if engine is not None:
        stats = engine.stats
        sampler.add_probe("rate_engine_solves", lambda: float(stats.solves))
        sampler.add_probe(
            "rate_engine_last_dirty_flows", lambda: float(stats.last_dirty_flows)
        )
        sampler.add_probe(
            "rate_engine_visit_savings", lambda: float(stats.visit_savings)
        )
        added += [
            "rate_engine_solves",
            "rate_engine_last_dirty_flows",
            "rate_engine_visit_savings",
        ]

    if flowserver is not None:
        sampler.add_probe(
            "tracked_flows", lambda: float(flowserver.tracked_flow_count())
        )
        sampler.add_probe("frozen_flows", lambda: _frozen_flow_count(flowserver))
        cache = flowserver.link_cache
        sampler.add_probe("cost_cache_hit_rate", lambda: float(cache.hit_rate))
        added += ["tracked_flows", "frozen_flows", "cost_cache_hit_rate"]

    return added


def _sum_over(objects: List[Any], attribute: str) -> Callable[[], float]:
    def probe() -> float:
        return float(sum(getattr(obj, attribute) for obj in objects))

    return probe


def bind_resilience_metrics(
    registry: MetricsRegistry,
    cluster: Any,
    clients: Iterable[Any],
    injector: Optional[Any] = None,
) -> MetricsRegistry:
    """Expose the resilience counters as callback gauges on ``registry``.

    Gauge names mirror the :class:`ResilienceSummary` fields.  Components
    a scheme lacks (no flowserver, no injector) register constant-zero
    gauges so every dump has the full schema.  ``time_to_recover_seconds``
    reads ``NaN`` when the scheme has no Flowserver at all.
    """
    client_list = list(clients)
    flowserver = cluster.flowserver
    collector = flowserver.collector if flowserver is not None else None

    def live(obj: Optional[Any], attribute: str) -> Callable[[], float]:
        if obj is None:
            return lambda: 0.0
        return lambda: float(getattr(obj, attribute))

    registry.gauge(
        "faults_applied", "Fault-plan events applied by the injector",
        callback=live(injector, "events_applied"),
    )
    registry.gauge(
        "flows_aborted", "Transfers aborted for any reason",
        callback=live(cluster.controller, "flows_aborted"),
    )
    registry.gauge(
        "flows_aborted_by_faults", "Transfers aborted by injected faults",
        callback=live(injector, "flows_aborted_by_faults"),
    )
    registry.gauge(
        "degraded_selections", "Replica selections made in degraded mode",
        callback=live(flowserver, "degraded_selections"),
    )
    registry.gauge(
        "degraded_entries", "Times the Flowserver entered degraded mode",
        callback=live(flowserver, "degraded_entries"),
    )
    registry.gauge(
        "unreachable_path_selections",
        "Selections where every candidate path was down",
        callback=live(flowserver, "unreachable_path_selections"),
    )

    def _ttr() -> float:
        if flowserver is None:
            return NOT_AVAILABLE
        return float(flowserver.time_to_recover())

    registry.gauge(
        "time_to_recover_seconds",
        "Mean degraded-to-recovered latency (NaN before first recovery)",
        callback=_ttr,
    )
    registry.gauge(
        "polls_lost", "Stats polls lost to faults",
        callback=live(collector, "polls_lost"),
    )
    registry.gauge(
        "poll_errors", "Stats polls that returned errors",
        callback=live(collector, "poll_errors"),
    )
    registry.gauge(
        "rpc_calls_timed_out", "RPC calls that expired undelivered",
        callback=live(cluster.fabric, "calls_timed_out"),
    )
    registry.gauge(
        "read_retries", "Client read attempts retried",
        callback=_sum_over(client_list, "read_retries"),
    )
    registry.gauge(
        "metadata_retries", "Client namespace calls retried",
        callback=_sum_over(client_list, "metadata_retries"),
    )
    registry.gauge(
        "read_failovers", "Client reads failed over to another replica",
        callback=_sum_over(client_list, "read_failovers"),
    )
    registry.gauge(
        "read_resumptions", "Client reads resumed mid-object",
        callback=_sum_over(client_list, "read_resumptions"),
    )
    registry.gauge(
        "bytes_resumed", "Bytes skipped thanks to resumed reads",
        callback=_sum_over(client_list, "bytes_resumed"),
    )
    return registry
