#!/usr/bin/env python3
"""Fault injection: a seeded storm hits a cluster mid-workload.

Builds a full Mayflower deployment with client resilience enabled, arms a
random-but-reproducible fault storm (trunk links flap, a switch dies,
dataservers crash, the stats channel goes dark), then runs a read
workload straight through it.  Every read completes anyway — via backoff,
replica failover and mid-transfer resumption — and the script prints the
fault journal plus the resilience telemetry at the end.

Run:  python examples/fault_injection_demo.py
"""

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.experiment import bootstrap_files
from repro.experiments.metrics import resilience_summary
from repro.faults import StormSpec, build_storm
from repro.fs.retry import RetryPolicy

MB = 1024 * 1024
SEED = 42
NUM_FILES = 12
NUM_READS = 24


def main():
    cluster = Cluster(
        ClusterConfig(
            scheme="mayflower",
            seed=SEED,
            retry=RetryPolicy(max_attempts=40, rpc_timeout=30.0),
        )
    )
    print(f"cluster up: {len(cluster.topology.hosts)} hosts, "
          f"nameserver on {cluster.nameserver_host}")

    files = bootstrap_files(cluster, NUM_FILES, file_size_bytes=512 * MB)

    # A seeded storm from the dedicated faults RNG stream; the nameserver
    # host is protected so the namespace survives, and every outage is
    # timed so the storm ends fully healed.
    spec = StormSpec(
        start=0.5,
        window=8.0,
        link_failures=3,
        switch_failures=1,
        dataserver_crashes=2,
        stats_poll_outages=1,
        mean_outage=3.0,
        protected_hosts=[cluster.nameserver_host],
    )
    plan = build_storm(cluster.topology, cluster.faults_rng(), spec)
    injector = cluster.inject_faults(plan)
    print(f"storm armed: {len(plan.expanded())} events "
          f"(failures + auto-recoveries)\n")

    hosts = sorted(cluster.topology.hosts)
    clients = {}
    durations = []

    def launch(i):
        host = hosts[(i * 7) % len(hosts)]
        if host not in clients:
            clients[host] = cluster.client(host)
        client = clients[host]
        name = files[i % NUM_FILES].name

        def body():
            result = yield from client.read(name, job_id=f"job{i}")
            durations.append(result.duration)

        cluster.spawn(body(), name=f"job{i}")

    for i in range(NUM_READS):
        cluster.loop.call_at(0.25 * i, launch, i)
    cluster.run_loop()

    print("fault journal (what actually fired):")
    for entry in injector.journal:
        detail = f"  [{entry.detail}]" if entry.detail else ""
        print(f"  t={entry.time:7.2f}s  {entry.kind:<18} "
              f"{entry.target or '(global)'}{detail}")

    summary = resilience_summary(
        cluster,
        clients.values(),
        injector=injector,
        jobs_total=NUM_READS,
        jobs_completed=len(durations),
    )
    print(f"\nall {len(durations)}/{NUM_READS} reads completed "
          f"(availability {summary.availability:.0%})")
    print(f"  flows aborted by faults : {summary.flows_aborted_by_faults}")
    print(f"  read retries / failovers: {summary.read_retries} / "
          f"{summary.read_failovers}")
    print(f"  mid-transfer resumptions: {summary.read_resumptions} "
          f"({summary.bytes_resumed / MB:.1f} MB not re-sent)")
    print(f"  degraded-mode selections: {summary.degraded_selections}")
    print(f"  mean completion time    : "
          f"{sum(durations) / len(durations):.3f}s")

    cluster.shutdown()


if __name__ == "__main__":
    main()
