"""Resilience benchmark — the Fig. 4 workload under a fault storm.

The paper evaluates Mayflower on a healthy network; this benchmark asks
what §7's discussion of robustness implies: with links flapping, switches
dying, dataservers crashing and the stats channel lossy, does co-design
still pay off?  We run the replica/path-selection workload through the
full cluster stack twice with the *same* seeded storm: Mayflower (with
the resilience machinery: retries, read resumption, degraded-mode ECMP
fallback) and Nearest-ECMP.  Assertions: every read completes despite the
storm, and Mayflower's mean completion time still beats ECMP's.
"""

import math
from dataclasses import replace

from conftest import attach_report

from repro.cluster.cluster import ClusterConfig
from repro.cluster.experiment import run_cluster_workload
from repro.experiments.metrics import resilience_summary, summarize
from repro.faults import StormSpec, build_storm
from repro.fs.retry import RetryPolicy
from repro.net.topology import three_tier
from repro.sim.randomness import RandomStreams

#: Deep retry budget: exponential outages can run tens of seconds, and the
#: benchmark's contract is that every read rides them out.
STORM_RETRY = RetryPolicy(
    max_attempts=60,
    base_delay=0.05,
    multiplier=2.0,
    max_delay=2.0,
    jitter=0.5,
    operation_deadline=None,
    rpc_timeout=30.0,
)


def _storm_plan(seed: int, jobs: int):
    """The seeded storm both schemes replay (identical event schedule).

    The window tracks the workload's expected span (λ=0.07/server on the
    default 64-host fabric ≈ 4.5 arrivals/s) so faults land while reads
    are actually in flight.
    """
    topology = three_tier()
    nameserver_host = sorted(topology.hosts)[0]
    window = max(8.0, jobs / 4.0)
    spec = StormSpec(
        start=0.5,
        window=window,
        link_failures=4,
        switch_failures=2,
        dataserver_crashes=3,
        stats_poll_outages=1,
        rpc_delay_spikes=1,
        mean_outage=4.0,
        protected_hosts=[nameserver_host],
    )
    return build_storm(topology, RandomStreams(seed).faults(), spec)


def _run_scheme(scheme: str, plan, jobs: int, files: int, seed: int):
    config = ClusterConfig(scheme=scheme, seed=seed, retry=STORM_RETRY)
    summaries = []

    def harvest(cluster, clients, injector):
        summaries.append(
            resilience_summary(cluster, clients, injector=injector, jobs_total=jobs)
        )

    durations = run_cluster_workload(
        scheme,
        num_jobs=jobs,
        num_files=files,
        seed=seed,
        config=config,
        fault_plan=plan,
        on_env=harvest,
    )
    (summary,) = summaries
    return durations, replace(summary, jobs_completed=len(durations)).as_dict()


def _run_storm(jobs: int, files: int, seed: int) -> dict:
    plan = _storm_plan(seed, jobs)
    out = {"plan_events": len(plan.expanded()), "schemes": {}}
    for scheme in ("mayflower", "hdfs-ecmp"):
        durations, stats = _run_scheme(scheme, plan, jobs, files, seed)
        out["schemes"][scheme] = {
            "durations": durations,
            "summary": summarize(durations).as_dict(),
            "resilience": stats,
        }
    return out


def _render(result: dict) -> str:
    lines = [
        "Fault storm — Fig. 4 workload under seeded failures",
        f"  storm events (incl. recoveries): {result['plan_events']}",
        f"  {'scheme':<14} {'mean_s':>8} {'p95_s':>8} {'avail':>6} "
        f"{'retries':>8} {'resumed_MB':>10}",
    ]
    for scheme, data in result["schemes"].items():
        s = data["summary"]
        r = data["resilience"]
        lines.append(
            f"  {scheme:<14} {s['mean']:>8.2f} {s['p95']:>8.2f} "
            f"{r['availability']:>6.2f} {r['read_retries']:>8d} "
            f"{r['bytes_resumed'] / 1e6:>10.1f}"
        )
    return "\n".join(lines)


def test_fault_storm(benchmark, bench_scale):
    jobs = max(40, bench_scale["cluster_jobs"] // 2)
    files = max(20, bench_scale["files"] // 4)
    seed = bench_scale["seed"]

    result = benchmark.pedantic(
        _run_storm,
        kwargs=dict(jobs=jobs, files=files, seed=seed),
        iterations=1,
        rounds=1,
    )
    attach_report(benchmark, _render(result))

    mayflower = result["schemes"]["mayflower"]
    ecmp = result["schemes"]["hdfs-ecmp"]

    # Contract 1: every read completes despite the storm — no job is lost
    # (run_cluster_workload raises on any unhandled job failure, so
    # reaching here already implies zero unhandled exceptions).
    for scheme, data in result["schemes"].items():
        assert len(data["durations"]) == jobs, scheme
        assert math.isclose(data["resilience"]["availability"], 1.0), scheme

    # Contract 2: the storm actually happened and actually hurt — faults
    # fired and the resilience machinery did real work.
    assert mayflower["resilience"]["faults_applied"] > 0
    total_damage = sum(
        data["resilience"]["flows_aborted"]
        + data["resilience"]["read_retries"]
        for data in result["schemes"].values()
    )
    assert total_damage > 0, "storm never touched the workload"

    # Contract 3: co-design still wins under failures.
    assert (
        mayflower["summary"]["mean"] <= ecmp["summary"]["mean"]
    ), (mayflower["summary"]["mean"], ecmp["summary"]["mean"])
