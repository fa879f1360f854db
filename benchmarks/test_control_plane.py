"""Nameserver front bench: metadata ops/sec, one server vs partitions.

The paper's nameserver is a single server: every metadata op queues
behind every other one.  ``ClusterConfig(metadata_partitions=P)``
consistent-hashes the namespace across P nameserver partitions, so
independent ops are served by independent servers.

This bench measures that at 256, 512 and 1024 hosts.  Per-op cost is
measured on the real implementation (the same create + lookup stream
for both sides); aggregate throughput follows the deployment's queueing
model — one server's makespan is the sum of its per-op costs, a
partitioned front's is the busiest partition's, since partitions run on
separate machines.  The claim pinned here: at 1024 hosts the
partitioned front sustains >= 3x the single server's metadata ops/sec.

Emits ``BENCH_control_plane.json`` for the CI artifact.
"""

import json
from pathlib import Path

from conftest import attach_report

from repro.experiments.wallclock import wall_seconds
from repro.fs.nameserver import Nameserver
from repro.fs.placement import PaperEvalPlacement
from repro.fs.shardmap import partition_for
from repro.net import three_tier
from repro.sim.randomness import seeded_rng

#: (pods, racks_per_pod) at the default 4 hosts/rack: 256 / 512 / 1024.
SCALES = [(8, 8), (16, 8), (16, 16)]

#: Metadata ops (create + lookup pairs) measured per scale.
METADATA_FILES = 400


def _hosts(pods, racks):
    return pods * racks * 4


def _partitions_for(pods):
    # one metadata shard per pod pair: enough parallel service capacity
    # to clear 3x without pretending every pod runs a nameserver
    return max(2, pods // 2)


def _bench_metadata(pods, racks, seed, tmp_path):
    topo = three_tier(pods=pods, racks_per_pod=racks)
    partitions = _partitions_for(pods)
    names = [f"/bench/meta/{pods}x{racks}/file-{i:04d}" for i in range(METADATA_FILES)]

    def make_ns(directory, stream):
        return Nameserver(
            tmp_path / directory,
            PaperEvalPlacement(topo, seeded_rng(stream)),
            rng=seeded_rng(stream + 1),
        )

    # Monolith: every create and lookup on the single server.
    mono = Nameserver(
        tmp_path / "mono",
        PaperEvalPlacement(topo, seeded_rng(seed)),
        rng=seeded_rng(seed + 1),
    )
    started = wall_seconds()
    for name in names:
        mono.create(name, replication=3)
    for name in names:
        mono.lookup(name)
    mono_elapsed = wall_seconds() - started
    mono.close()

    # Sharded: the same ops routed by the real hash ring, each timed and
    # attributed to its owning partition server.
    servers = [make_ns(f"p{p}", seed + 10 * p) for p in range(partitions)]
    owner = {name: partition_for(name, partitions) for name in names}
    busy = [0.0] * partitions
    for name in names:
        p = owner[name]
        started = wall_seconds()
        servers[p].create(name, replication=3)
        busy[p] += wall_seconds() - started
    for name in names:
        p = owner[name]
        started = wall_seconds()
        servers[p].lookup(name)
        busy[p] += wall_seconds() - started
    for ns in servers:
        ns.close()

    ops = 2 * len(names)
    bottleneck = max(busy)
    return {
        "ops": ops,
        "partitions": partitions,
        "mono_ops_per_s": ops / mono_elapsed,
        "sharded_ops_per_s": ops / bottleneck,
        "busiest_partition_share": bottleneck / sum(busy),
        "speedup": mono_elapsed / bottleneck,
    }


def test_partitioned_nameserver_throughput(benchmark, bench_scale, tmp_path):
    seed = bench_scale["seed"]

    def sweep():
        rows = []
        for pods, racks in SCALES:
            hosts = _hosts(pods, racks)
            metadata = _bench_metadata(
                pods, racks, seed, tmp_path / f"h{hosts}"
            )
            rows.append({"hosts": hosts, "pods": pods, "metadata": metadata})
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)

    Path("BENCH_control_plane.json").write_text(
        json.dumps({"seed": seed, "scales": rows}, indent=2) + "\n"
    )

    lines = ["Partitioned nameserver vs one server (metadata ops/s)"]
    for row in rows:
        meta = row["metadata"]
        lines.append(
            f"  {row['hosts']:5d} hosts: metadata "
            f"{meta['mono_ops_per_s']:8.0f}/s -> "
            f"{meta['sharded_ops_per_s']:8.0f}/s "
            f"({meta['speedup']:.1f}x, P={meta['partitions']})"
        )
    attach_report(benchmark, "\n".join(lines))

    # The headline claim: >= 3x at 1024 hosts.
    top = rows[-1]
    assert top["hosts"] == 1024
    assert top["metadata"]["speedup"] >= 3.0, top["metadata"]
