#!/usr/bin/env python3
"""The lease-guarded write path, from a grant to a failover.

Walks the whole write path on one small cluster (DESIGN.md §10):

1. appends run the two-phase push/commit protocol over a replication
   fan-out the Flowserver planned from live link costs;
2. the primary holds a nameserver-granted lease whose epoch stamps every
   committed entry (watch the per-replica append ledgers agree);
3. a fault kills the primary and revokes its leases mid-workload — the
   replica manager promotes a survivor (epoch bump), clients retry and
   fail over, and every acknowledged append lands exactly once;
4. the fenced old primary demonstrably cannot commit again.

Run:  python examples/write_path_tour.py
"""

from repro.cluster import Cluster, ClusterConfig
from repro.faults import FaultEvent, FaultPlan
from repro.fs.retry import RetryPolicy

MB = 1024 * 1024
SEED = 7


def print_ledgers(cluster, file_id, replicas, heading):
    print(f"\n{heading}")
    for replica in replicas:
        ledger = cluster.dataservers[replica].append_ledger(file_id)
        entries = ", ".join(
            f"{e.append_id}@{e.offset // MB}MB(e{e.epoch})" for e in ledger
        )
        print(f"  {replica:<15} [{entries}]")


def main():
    cluster = Cluster(
        ClusterConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=2,
            scheme="mayflower",
            store_payload=True,
            seed=SEED,
            lease_duration=10.0,
            retry=RetryPolicy(max_attempts=40),
            enable_replica_manager=True,
            heartbeat_interval=2.0,
            heartbeat_timeout=5.0,
            repair_interval=3.0,
        )
    )
    print(f"cluster up: {len(cluster.topology.hosts)} hosts, "
          f"lease service on {cluster.nameserver_host}")

    client = cluster.client("pod1-rack1-h1")

    # --- 1+2: two-phase appends under a lease -------------------------
    def setup():
        meta = yield from client.create("tour.bin", chunk_bytes=64 * MB)
        for _ in range(3):
            yield from client.append("tour.bin", 2 * MB, b"x" * (2 * MB))
        return meta

    proc = cluster.spawn(setup())
    cluster.run_loop(until=2.0)
    assert proc.exception is None, proc.exception
    meta = proc.result

    grant = cluster.lease_manager.current(meta.file_id)
    fs = cluster.flowserver
    print(f"\nprimary {meta.replicas[0]} holds the lease at epoch "
          f"{grant.epoch} (expires t={grant.expires_at:.1f}s)")
    print(f"fan-out plans so far: {fs.fanout_tree_plans} tree, "
          f"{fs.fanout_chain_plans} chain, "
          f"{fs.fanout_static_fallbacks} static fallback")
    print_ledgers(cluster, meta.file_id, meta.replicas,
                  "append ledgers (identical on every replica):")

    # --- 3: kill the primary mid-workload -----------------------------
    old_primary = meta.replicas[0]
    injector = cluster.inject_faults(FaultPlan((
        FaultEvent(2.5, "dataserver_crash", old_primary, duration=20.0),
        FaultEvent(2.5, "lease_expire", old_primary),
    )))
    print(f"\nfault armed: crash + lease revocation on {old_primary}")

    def keep_writing():
        for _ in range(3):
            yield from client.append("tour.bin", 2 * MB, b"y" * (2 * MB))

    proc2 = cluster.spawn(keep_writing())
    cluster.run_loop(until=60.0)
    assert proc2.exception is None, proc2.exception

    current = cluster.nameserver.lookup("tour.bin")
    new_primary = current["replicas"][0]
    epoch = cluster.lease_manager.current_epoch(meta.file_id)
    print("\nstorm over:")
    for entry in injector.journal:
        print(f"  t={entry.time:5.2f}s  {entry.kind:<18} {entry.target}"
              f"  [{entry.detail}]" if entry.detail else
              f"  t={entry.time:5.2f}s  {entry.kind:<18} {entry.target}")
    print(f"  promoted primary: {new_primary} (epoch {epoch}), "
          f"{client.append_retries} append retries, "
          f"{client.append_failovers} failovers")
    print(f"  file size {current['size_bytes'] // MB} MB = 6 appends, "
          f"exactly once")
    print_ledgers(cluster, meta.file_id, current["replicas"],
                  "ledgers after failover (acked appends agree):")

    # --- 4: the fenced old primary cannot commit ----------------------
    from repro.fs.errors import StaleEpochError

    try:
        cluster.nameserver.record_append(
            "tour.bin", current["size_bytes"] + MB, epoch - 1, old_primary
        )
    except StaleEpochError as err:
        print(f"\nstale-primary commit fenced by the nameserver:\n  {err}")

    cluster.shutdown()


if __name__ == "__main__":
    main()
