"""Cross-stack telemetry tests: determinism, emit-site coverage, rewiring."""

import pytest

import repro.telemetry as telemetry
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core.flowserver import Flowserver
from repro.experiments.metrics import resilience_summary
from repro.experiments.runner import (
    SchemeRunConfig,
    build_environment,
    run_scheme_on_workload,
)
from repro.faults import FaultEvent, FaultPlan
from repro.net import RoutingTable, three_tier
from repro.sim import instrument
from repro.telemetry import to_jsonl, validate_chrome_trace, to_chrome_trace
from repro.telemetry.bind import COUNTERS
from repro.workload import LocalityDistribution, WorkloadConfig, generate_workload


@pytest.fixture(scope="module")
def small_workload():
    topo = three_tier()
    config = WorkloadConfig(
        num_files=20,
        num_jobs=30,
        arrival_rate_per_server=0.07,
        locality=LocalityDistribution(0.5, 0.3, 0.2),
    )
    return generate_workload(topo, config, seed=11)


def traced_run(small_workload, scheme="mayflower", seed=11):
    with telemetry.session() as tel:
        records = run_scheme_on_workload(scheme, small_workload, seed=seed)
    return tel, records


def test_same_seed_runs_export_byte_identical_jsonl(small_workload):
    tel_a, _ = traced_run(small_workload)
    tel_b, _ = traced_run(small_workload)
    a, b = to_jsonl(tel_a.tracer), to_jsonl(tel_b.tracer)
    assert a == b
    assert len(tel_a.tracer) > 0


def test_telemetry_does_not_change_results(small_workload):
    """The observer effect is zero: traced and untraced runs agree."""
    bare = run_scheme_on_workload("mayflower", small_workload, seed=11)
    _, traced = traced_run(small_workload)
    assert [(r.job_id, r.completion_time) for r in bare] == [
        (r.job_id, r.completion_time) for r in traced
    ]


def test_disabled_path_records_nothing(small_workload):
    assert instrument.TELEMETRY is None
    run_scheme_on_workload("mayflower", small_workload, seed=11)
    assert instrument.TELEMETRY is None


def test_emit_site_taxonomy_coverage(small_workload):
    """One traced run hits every event family the design doc promises."""
    tel, records = traced_run(small_workload)
    cats = {e.cat for e in tel.tracer.events}
    assert {"decision", "transfer", "poll", "metric", "sim"} <= cats
    names = {e.name for e in tel.tracer.events}
    assert {"run.start", "run.end", "flowserver.select", "collector.poll"} <= names
    # Every transfer span closed, and spans reconcile with the metrics side.
    begins = [e for e in tel.tracer.events if e.ph == "b" and e.cat == "transfer"]
    ends = [e for e in tel.tracer.events if e.ph == "e" and e.cat == "transfer"]
    assert len(begins) == len(ends) > 0
    assert tel.metrics.value("transfers_started_total") == len(begins)
    selects = [e for e in tel.tracer.events if e.name == "flowserver.select"]
    assert tel.metrics.value("flowserver_requests_total") == len(selects)
    # Each decision names its request and counts the paths it evaluated.
    routing = RoutingTable(three_tier())
    jobs = {job.job_id: job for job in small_workload.jobs}
    for event in selects:
        job = jobs[event.args["request"]]
        assert event.args["candidates"] == len(
            routing.paths_from_replicas(list(job.file.replicas), job.client)
        )


def test_sampler_probes_bound_by_runner(small_workload):
    tel, _ = traced_run(small_workload)
    sampler = tel.sampler
    assert sampler is not None and sampler.samples_taken > 0
    assert set(sampler.series) == {
        "link_utilization_mean",
        "link_utilization_max",
        "rate_engine_solves",
        "rate_engine_last_dirty_flows",
        "rate_engine_visit_savings",
        "tracked_flows",
        "frozen_flows",
        "cost_cache_hit_rate",
    }
    peak = max(v for _, v in sampler.series["link_utilization_max"])
    assert 0.0 < peak <= 1.0


def test_chrome_export_of_real_run_validates(small_workload):
    tel, _ = traced_run(small_workload)
    payload = to_chrome_trace(tel.tracer, registry=tel.metrics)
    assert validate_chrome_trace(payload) == []


def test_flowserver_context_manager_stops_collector():
    env = build_environment("mayflower", SchemeRunConfig(), seed=1)
    with env.flowserver as fs:
        assert isinstance(fs, Flowserver)
    assert fs.collector._timer is None or fs.collector._timer.stopped
    # The loop can now drain to idle: close() stopped the poller.
    env.loop.run()
    assert env.loop.peek_time() is None


def test_resilience_summary_agrees_with_the_exported_counters():
    """The summary and a dump read the same component attributes."""
    with telemetry.session() as tel:
        cluster = Cluster(ClusterConfig(scheme="mayflower", seed=5))
        try:
            trunk = sorted(
                lid for lid, link in cluster.topology.links.items()
                if link.src in cluster.topology.switches
                and link.dst in cluster.topology.switches
            )[0]
            plan = FaultPlan((FaultEvent(1.0, "link_down", trunk, duration=2.0),))
            injector = cluster.inject_faults(plan)
            cluster.loop.run(until=5.0)
            summary = resilience_summary(cluster, [], injector=injector,
                                         jobs_total=4, jobs_completed=4)
        finally:
            cluster.shutdown()
    assert summary.faults_applied == injector.events_applied == 2
    assert summary.flows_aborted == cluster.controller.flows_aborted
    assert summary.availability == 1.0
    assert summary.as_dict()["faults_applied"] == 2
    exported = {
        "faults_applied": "faults_applied_total",
        "flows_aborted": "transfers_aborted_total",
        "flows_aborted_by_faults": "faults_flows_aborted_total",
        "degraded_selections": "flowserver_degraded_selections_total",
        "degraded_entries": "flowserver_degraded_entries_total",
        "unreachable_path_selections":
            "flowserver_unreachable_path_selections_total",
        "mean_time_to_recover": "time_to_recover_seconds",
        "polls_lost": "collector_polls_lost_total",
        "poll_errors": "collector_poll_errors_total",
        "rpc_calls_timed_out": "rpc_calls_timed_out_total",
    }
    fields = summary.as_dict()
    for field, metric in exported.items():
        assert fields[field] == tel.metrics.value(metric), field


#: The component kinds announced on the instrument bus (its docstring
#: lists the same set).
ANNOUNCED_KINDS = {
    "network", "streams", "controller", "flowserver", "fabric", "leases",
    "dataserver", "client", "injector",
}


def test_counters_table_reads_one_attribute_per_name():
    """One row per fact: no two names, and no two readers, are the same,
    and every row reads a kind the bus announces."""
    names = [name for name, _, _, _ in COUNTERS]
    assert len(names) == len(set(names))
    assert all(name.endswith("_total") for name in names)
    readers = [(kind, repr(reader)) for _, kind, reader, _ in COUNTERS]
    assert len(readers) == len(set(readers))
    assert {kind for kind, _ in readers} <= ANNOUNCED_KINDS


def test_session_hears_every_announced_component_kind():
    with telemetry.session() as tel:
        cluster = Cluster(ClusterConfig(scheme="mayflower", seed=5))
        try:
            cluster.client(sorted(cluster.topology.hosts)[0])
            cluster.inject_faults(FaultPlan(()))
        finally:
            cluster.shutdown()
    assert set(tel.components) == ANNOUNCED_KINDS
    assert len(tel.components["dataserver"]) == len(cluster.topology.hosts)
    # Leaving the session leaves the bus: later components go unheard.
    Cluster(ClusterConfig(scheme="mayflower", seed=5)).shutdown()
    assert len(tel.components["flowserver"]) == 1


def test_write_path_counters_match_the_trace():
    """The write-path counters agree with the instants of one traced run."""
    from repro.experiments.writes import run_writes

    with telemetry.session() as tel:
        run_writes(seed=3, num_appends=6, num_files=2, append_bytes=256 * 1024)
    names = [e.name for e in tel.tracer.events if e.ph == "i"]
    served = tel.metrics.value("ds_appends_served_total")
    assert served == names.count("ds.commit_append") >= 6
    assert tel.metrics.value("lease_grants_total") == names.count("lease.grant") > 0
    fanouts = tel.metrics.value("flowserver_fanout_requests_total")
    assert fanouts == names.count("flowserver.fanout") > 0


def test_fault_instants_emitted():
    cluster = Cluster(ClusterConfig(scheme="mayflower", seed=5))
    try:
        with telemetry.session() as tel:
            trunk = sorted(
                lid for lid, link in cluster.topology.links.items()
                if link.src in cluster.topology.switches
                and link.dst in cluster.topology.switches
            )[0]
            plan = FaultPlan((FaultEvent(1.0, "link_down", trunk,
                                         duration=2.0),))
            cluster.inject_faults(plan)
            cluster.loop.run(until=5.0)
        names = [e.name for e in tel.tracer.events if e.cat == "fault"]
        assert names == ["fault.link_down", "fault.link_up"]
        net_names = [e.name for e in tel.tracer.events if e.cat == "net"]
        assert net_names == ["net.link_down", "net.link_up"]
        assert tel.metrics.value("faults_applied_total") == 2.0
    finally:
        cluster.shutdown()


def test_session_install_uninstall_is_clean():
    assert telemetry.active() is None
    tel = telemetry.install()
    assert telemetry.active() is tel
    assert instrument.TELEMETRY is tel
    assert telemetry.uninstall() is tel
    assert telemetry.active() is None
    assert telemetry.uninstall() is None  # idempotent
