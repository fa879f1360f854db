"""Telemetry overhead guard: disabled emit sites cost (almost) nothing.

Every instrumented hot path guards with a single ``instrument.TELEMETRY is
None`` check, so a run without a session installed must stay within noise
of the pre-telemetry baseline — and must allocate zero trace events.  The
enabled path is measured too, to keep its cost visible (it records tens of
events per job; a few-x slowdown there would flag a regression like
per-event rendering).
"""

import pytest

import repro.telemetry as telemetry
from repro.experiments.runner import run_scheme_on_workload
from repro.net import three_tier
from repro.sim import instrument
from repro.workload import LocalityDistribution, WorkloadConfig, generate_workload

from conftest import BENCH_SEED


@pytest.fixture(scope="module")
def fig4_style_workload():
    topo = three_tier()
    config = WorkloadConfig(
        num_files=40,
        num_jobs=80,
        arrival_rate_per_server=0.07,
        locality=LocalityDistribution(0.5, 0.3, 0.2),
    )
    return generate_workload(topo, config, seed=BENCH_SEED)


def test_disabled_telemetry_overhead(benchmark, fig4_style_workload):
    """Fig. 4-sized run with no session installed: the seed-baseline path."""
    assert instrument.TELEMETRY is None

    def run():
        return run_scheme_on_workload(
            "mayflower", fig4_style_workload, seed=BENCH_SEED
        )

    records = benchmark(run)
    assert len(records) == 80
    # Nothing was recorded anywhere: the global stayed unset.
    assert instrument.TELEMETRY is None


def test_enabled_telemetry_overhead(benchmark, fig4_style_workload):
    """Same run with a session installed; keeps the enabled cost visible."""

    def run():
        with telemetry.session() as tel:
            run_scheme_on_workload(
                "mayflower", fig4_style_workload, seed=BENCH_SEED
            )
        return tel

    tel = benchmark(run)
    assert len(tel.tracer) > 0
    assert tel.metrics.value("flowserver_requests_total") > 0


def _pipelined_append_run(seed):
    """A propagation-heavy workload: traced two-phase replicated appends."""
    from repro.cluster.cluster import Cluster, ClusterConfig

    cluster = Cluster(
        ClusterConfig(
            pods=2, racks_per_pod=2, hosts_per_rack=2, seed=seed,
        )
    )
    client = cluster.client(sorted(cluster.topology.hosts)[-1])

    def body():
        yield from client.create("/bench/f", replication=3)
        for _ in range(8):
            yield from client.append("/bench/f", 2 * 1024 * 1024)

    cluster.run(body())
    end = cluster.loop.now
    cluster.shutdown()
    return end


def test_disabled_propagation_overhead(benchmark):
    """Pipelined appends with no session: context plumbing must be free."""
    assert instrument.TELEMETRY is None
    completion = benchmark(lambda: _pipelined_append_run(BENCH_SEED))
    assert completion > 0
    assert instrument.TELEMETRY is None


def test_enabled_propagation_overhead(benchmark):
    """Same appends traced.

    Covers the full propagation path: span derivation per rpc and
    ambient context save/restore per process resume.
    """

    def run():
        with telemetry.session() as tel:
            completion = _pipelined_append_run(BENCH_SEED)
        return tel, completion

    tel, _ = benchmark(run)
    assert any(
        e.ph == "b" and e.args and e.args.get("trace")
        for e in tel.tracer.events
    )


def test_propagation_does_not_change_the_timeline():
    """Append completion times agree with tracing off, on, and re-off."""
    baseline = _pipelined_append_run(BENCH_SEED)
    with telemetry.session():
        traced = _pipelined_append_run(BENCH_SEED)
    again = _pipelined_append_run(BENCH_SEED)
    assert traced == baseline
    assert again == baseline


def test_disabled_run_results_match_traced_run(fig4_style_workload):
    """The fingerprint is identical with telemetry on, off, and re-off."""
    baseline = run_scheme_on_workload(
        "mayflower", fig4_style_workload, seed=BENCH_SEED
    )
    with telemetry.session():
        traced = run_scheme_on_workload(
            "mayflower", fig4_style_workload, seed=BENCH_SEED
        )
    again = run_scheme_on_workload(
        "mayflower", fig4_style_workload, seed=BENCH_SEED
    )
    fingerprint = [(r.job_id, r.completion_time) for r in baseline]
    assert [(r.job_id, r.completion_time) for r in traced] == fingerprint
    assert [(r.job_id, r.completion_time) for r in again] == fingerprint
