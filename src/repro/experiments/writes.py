"""Seeded write-path workload: appends under observation.

The ``writes`` experiment target drives the two-phase, lease-guarded
append path (push_data + commit_append over an SDN-planned fan-out)
on a small 3-replica cluster — the workload the causal-tracing stack is
exercised against.  Run with ``--trace`` it produces one trace tree per
append (client → rpc → push/commit → relay hops) for
``python -m repro.telemetry analyze``, and a small mid-run fault whose
``fault.*`` instant marks where it hit.

Everything is a pure function of the seed: same seed, same append
latencies, same trace, byte for byte.
"""

from __future__ import annotations

from typing import Generator, List

from repro.experiments.metrics import summarize

#: Mid-run fault: a transient control-plane delay spike.  It perturbs no
#: data transfer (so the workload always completes) but exercises the
#: injector, and its application lands in the trace.
FAULT_TIME_S = 0.05
FAULT_DURATION_S = 0.2
FAULT_MAGNITUDE = 3.0


def run_writes(
    seed: int = 42,
    num_appends: int = 12,
    num_files: int = 3,
    append_bytes: int = 4 * 1024 * 1024,
) -> dict:
    """Run the seeded append workload; returns the report payload.

    A 2x2x2 Mayflower cluster (8 hosts, 3-replica files, retrying
    clients), ``num_files`` files created up front, then
    ``num_appends`` sequential appends from seeded writer hosts.  Each
    append's client-observed latency is measured on the simulated clock.
    """
    from repro.cluster import Cluster, ClusterConfig
    from repro.faults.plan import FaultEvent, FaultPlan
    from repro.fs.retry import RetryPolicy

    cluster = Cluster(
        ClusterConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=2,
            seed=seed,
            replication=3,
            retry=RetryPolicy(),
        )
    )
    injector = cluster.inject_faults(
        FaultPlan(
            events=(
                FaultEvent(
                    time=FAULT_TIME_S,
                    kind="rpc_delay_spike",
                    duration=FAULT_DURATION_S,
                    magnitude=FAULT_MAGNITUDE,
                ),
            )
        )
    )

    hosts = sorted(cluster.topology.hosts)
    rng = cluster._streams.stream("writes-workload")
    files = [f"/writes/file-{i}" for i in range(num_files)]
    creator = cluster.client(hosts[0])

    def create_all() -> Generator:
        for name in files:
            yield from creator.create(name, replication=3)

    cluster.run(create_all(), name="writes-create")

    appends: List[dict] = []
    clients = {hosts[0]: creator}
    for i in range(num_appends):
        writer = hosts[rng.randrange(len(hosts))]
        name = files[rng.randrange(len(files))]
        client = clients.setdefault(writer, cluster.client(writer))
        start = cluster.loop.now

        def one_append(
            client=client, name=name, size=append_bytes
        ) -> Generator:
            result = yield from client.append(name, size)
            return result

        new_size = cluster.run(one_append(), name=f"writes-append-{i}")
        appends.append(
            {
                "writer": writer,
                "file": name,
                "bytes": append_bytes,
                "latency_s": cluster.loop.now - start,
                "new_size": new_size,
            }
        )
    cluster.run_loop()  # drain (fault recovery, stragglers)
    cluster.shutdown()

    return {
        "figure": "writes",
        "config": {
            "seed": seed,
            "hosts": len(hosts),
            "replication": 3,
            "num_appends": num_appends,
            "num_files": num_files,
            "append_bytes": append_bytes,
        },
        "appends": appends,
        "stats": summarize([a["latency_s"] for a in appends]),
        "faults": [
            {"time": e.time, "kind": e.kind, "target": e.target,
             "detail": e.detail}
            for e in injector.journal
        ],
    }


def render_writes(result: dict) -> str:
    """Human-readable report for the ``writes`` target."""
    cfg = result["config"]
    stats = result["stats"]
    lines = [
        "Write pipeline workload "
        f"({cfg['hosts']} hosts, {cfg['replication']}-replica, "
        f"{cfg['num_appends']} appends of "
        f"{cfg['append_bytes'] // (1024 * 1024)} MiB, seed {cfg['seed']}):",
        f"  append latency: mean {stats.mean:.4f} s  "
        f"p95 {stats.p95:.4f} s  max {stats.maximum:.4f} s",
    ]
    for a in result["appends"]:
        lines.append(
            f"    {a['writer']:<6} -> {a['file']:<16} "
            f"{a['latency_s']:.4f} s  (size now {a['new_size']})"
        )
    if result["faults"]:
        lines.append("  faults applied:")
        for f in result["faults"]:
            detail = f" ({f['detail']})" if f["detail"] else ""
            lines.append(
                f"    t={f['time']:.3f} {f['kind']} {f['target']}{detail}"
            )
    return "\n".join(lines)
