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
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.net import RoutingTable, three_tier
from repro.sim import instrument
from repro.telemetry import to_jsonl, validate_chrome_trace, to_chrome_trace
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


def test_resilience_summary_reads_registry(tmp_path):
    """Satellite (c): summary values come from the bound metrics registry."""
    cluster = Cluster(ClusterConfig(scheme="mayflower", seed=5,
                                    db_directory=tmp_path))
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
        assert summary.faults_applied == injector.events_applied == 2
        assert summary.flows_aborted == cluster.controller.flows_aborted
        assert summary.availability == 1.0
        assert summary.as_dict()["faults_applied"] == 2

        # An explicit registry is reused, not re-bound.
        from repro.telemetry import MetricsRegistry, bind_resilience_metrics

        registry = MetricsRegistry()
        bind_resilience_metrics(registry, cluster, [], injector)
        again = resilience_summary(cluster, [], injector=injector,
                                   registry=registry)
        assert again.faults_applied == 2
        assert registry.value("faults_applied") == 2.0
    finally:
        cluster.shutdown()


def test_fault_instants_emitted(tmp_path):
    cluster = Cluster(ClusterConfig(scheme="mayflower", seed=5,
                                    db_directory=tmp_path))
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
