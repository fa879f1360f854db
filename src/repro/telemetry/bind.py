"""Wire live simulation components into samplers and registries.

Two jobs live here, both read-only with respect to the simulation:

* :func:`bind_standard_probes` registers the periodic time-series probes
  the paper's figures care about (link utilization, tracked/frozen flow
  counts, in-flight transfer count) on a
  :class:`~repro.telemetry.metrics.TimeSeriesSampler`;
* :func:`bind_counters` registers the :data:`COUNTERS` rows of one
  component kind as callback counters, so every exported count is read
  from the component attribute that already keeps it.

Everything is callback-based: no values are copied at bind time, reads
happen when a sample fires or a dump is taken.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, List, Optional, Tuple

from repro.net.simulator import FlowNetwork
from repro.net.topology import Topology
from repro.telemetry.metrics import MetricsRegistry, TimeSeriesSampler

def _frozen_flow_count(flowserver: Any) -> float:
    table = flowserver.state
    return float(sum(1 for f in table.flows.values() if f.freezed))


def bind_standard_probes(
    sampler: TimeSeriesSampler,
    *,
    network: Optional[FlowNetwork] = None,
    topology: Optional[Topology] = None,
    flowserver: Optional[Any] = None,
) -> List[str]:
    """Attach the standard probe set; returns the probe names added.

    ``network``/``topology`` enable the link-utilization probes (mean and
    max fraction of capacity across up links); ``flowserver`` enables the
    tracked/frozen flow-count probes.  Missing components simply skip
    their probes, so call sites pass whatever the scheme under test has.

    With ``network``, the rate engine's solver counters are exposed
    too, as is the Flowserver's cost-model cache hit rate.
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

    if network is not None:
        stats = network.rate_engine.stats
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


Reader = Callable[[Any], float]


def _poll_total(attribute: str) -> Reader:
    """Sum one of the collector's per-switch poll-volume dicts."""
    def read(flowserver: Any) -> float:
        return float(sum(getattr(flowserver.collector, attribute).values()))

    return read


#: Every exported counter, one row per fact: ``(name, component kind,
#: reader, help)``.  The reader takes one component of that kind (as
#: announced on :mod:`repro.sim.instrument`'s bus) and returns its own
#: count; the exported value sums the reader over every component of the
#: kind.  No component keeps a second copy for telemetry.
COUNTERS: Tuple[Tuple[str, str, Reader, str], ...] = (
    ("transfers_started_total", "controller",
     attrgetter("transfers_started"), "Transfers started on the network"),
    ("transfers_completed_total", "controller",
     attrgetter("transfers_completed"), "Transfers that delivered every byte"),
    ("transfers_aborted_total", "controller",
     attrgetter("flows_aborted"), "Transfers aborted for any reason"),
    ("rate_engine_solves_total", "network",
     attrgetter("rate_engine.stats.solves"), "Incremental rate solves"),
    ("rpc_calls_total", "fabric",
     attrgetter("calls_sent"), "RPC calls sent"),
    ("rpc_calls_failed_total", "fabric",
     attrgetter("calls_failed"), "RPC calls answered with an error"),
    ("rpc_calls_timed_out_total", "fabric",
     attrgetter("calls_timed_out"), "RPC calls that expired undelivered"),
    ("flowserver_requests_total", "flowserver",
     attrgetter("requests_served"), "Replica/path selections served"),
    ("flowserver_local_reads_total", "flowserver",
     attrgetter("local_reads"), "Selections answered by a local replica"),
    ("flowserver_split_reads_total", "flowserver",
     attrgetter("split_reads"), "Selections split across replicas"),
    ("flowserver_degraded_selections_total", "flowserver",
     attrgetter("degraded_selections"),
     "Replica selections made in degraded mode"),
    ("flowserver_degraded_entries_total", "flowserver",
     attrgetter("degraded_entries"), "Times the Flowserver entered degraded mode"),
    ("flowserver_unreachable_path_selections_total", "flowserver",
     attrgetter("unreachable_path_selections"),
     "Selections where every candidate path was down"),
    ("flowserver_fanout_requests_total", "flowserver",
     attrgetter("fanout_requests"), "Append fan-out plans requested"),
    ("flowserver_fanout_tree_total", "flowserver",
     attrgetter("fanout_tree_plans"), "Fan-out plans shaped as a tree"),
    ("flowserver_fanout_chain_total", "flowserver",
     attrgetter("fanout_chain_plans"), "Fan-out plans shaped as a chain"),
    ("flowserver_fanout_static_fallbacks_total", "flowserver",
     attrgetter("fanout_static_fallbacks"),
     "Fan-out plans degraded to the static replica chain"),
    ("collector_polls_total", "flowserver",
     attrgetter("collector.polls_completed"), "Stats poll cycles run"),
    ("collector_measurements_applied_total", "flowserver",
     attrgetter("collector.measurements_applied"),
     "Polled rates applied to tracked flows"),
    ("collector_measurements_suppressed_total", "flowserver",
     attrgetter("collector.measurements_suppressed"),
     "Polled rates ignored under the update freeze"),
    ("collector_polls_lost_total", "flowserver",
     attrgetter("collector.polls_lost"), "Stats polls lost to faults"),
    ("collector_poll_errors_total", "flowserver",
     attrgetter("collector.poll_errors"), "Stats polls that returned errors"),
    ("flowserver_poll_messages_total", "flowserver",
     _poll_total("poll_messages"), "OpenFlow stats messages exchanged"),
    ("flowserver_poll_bytes_total", "flowserver",
     _poll_total("poll_bytes"), "Estimated bytes of OpenFlow stats traffic"),
    ("ds_reads_served_total", "dataserver",
     attrgetter("reads_served"), "Reads served by dataservers"),
    ("ds_appends_served_total", "dataserver",
     attrgetter("appends_served"), "Appends committed by primaries"),
    ("ds_pushes_staged_total", "dataserver",
     attrgetter("pushes_staged"), "Append payloads staged by primaries"),
    ("ds_appends_deduplicated_total", "dataserver",
     attrgetter("appends_deduplicated"), "Retried appends answered from the ledger"),
    ("ds_catch_ups_served_total", "dataserver",
     attrgetter("catch_ups_served"), "Catch-up requests served to lagging replicas"),
    ("ds_relays_caught_up_total", "dataserver",
     attrgetter("relays_caught_up"), "Relays that caught up before applying"),
    ("ds_truncations_total", "dataserver",
     attrgetter("truncations"), "Diverged replica tails truncated"),
    ("ds_lease_fencings_total", "dataserver",
     attrgetter("lease_fencings"), "Appends refused for a stale lease"),
    ("lease_grants_total", "leases",
     attrgetter("grants"), "Primary leases granted"),
    ("lease_renewals_total", "leases",
     attrgetter("renewals"), "Primary leases renewed"),
    ("lease_promotions_total", "leases",
     attrgetter("promotions"), "Primaries forced by the replica manager"),
    ("lease_expirations_total", "leases",
     attrgetter("expirations"), "Leases voided by host expiry"),
    ("lease_rejections_total", "leases",
     attrgetter("rejections"), "Lease requests refused while held elsewhere"),
    ("lease_fencing_rejections_total", "leases",
     attrgetter("fencing_rejections"), "Commit reports fenced for a stale epoch"),
    ("client_read_retries_total", "client",
     attrgetter("read_retries"), "Client read attempts retried"),
    ("client_metadata_retries_total", "client",
     attrgetter("metadata_retries"), "Client namespace calls retried"),
    ("client_append_retries_total", "client",
     attrgetter("append_retries"), "Client append attempts retried"),
    ("client_read_failovers_total", "client",
     attrgetter("read_failovers"), "Client reads failed over to another replica"),
    ("client_read_resumptions_total", "client",
     attrgetter("read_resumptions"), "Client reads resumed mid-object"),
    ("client_bytes_resumed_total", "client",
     attrgetter("bytes_resumed"), "Bytes skipped thanks to resumed reads"),
    ("client_append_failovers_total", "client",
     attrgetter("append_failovers"), "Client appends that followed a new primary"),
    ("faults_applied_total", "injector",
     attrgetter("events_applied"), "Fault-plan events applied by the injector"),
    ("faults_flows_aborted_total", "injector",
     attrgetter("flows_aborted_by_faults"), "Transfers aborted by injected faults"),
)


def bind_counters(registry: MetricsRegistry, kind: str,
                  components: List[Any]) -> None:
    """Register ``kind``'s :data:`COUNTERS` rows on ``registry``.

    ``components`` is the caller's live list of that kind's components;
    every read sums over whatever it holds then.  The Flowserver kind
    also binds the ``time_to_recover_seconds`` gauge, pooled over every
    degraded episode of every Flowserver.
    """
    for name, row_kind, reader, help in COUNTERS:
        if row_kind == kind:
            registry.counter(name, _sum_over(components, reader), help)
    if kind == "flowserver":
        def _ttr() -> float:
            times = [t for fs in components for t in fs.recovery_times]
            return sum(times) / len(times) if times else 0.0

        registry.gauge(
            "time_to_recover_seconds",
            "Mean degraded-to-recovered latency (0 before first recovery)",
            callback=_ttr,
        )


def _sum_over(components: List[Any], reader: Reader) -> Callable[[], float]:
    def read() -> float:
        return float(sum(reader(component) for component in components))

    return read
