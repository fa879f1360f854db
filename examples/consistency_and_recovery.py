#!/usr/bin/env python3
"""Consistency modes and nameserver crash recovery (§3.3.1, §3.4).

Part 1 — strong vs sequential consistency: a multi-chunk file is read
under both modes; under STRONG the mutable last chunk is pinned to the
primary replica while every immutable chunk keeps full replica freedom.

Part 2 — nameserver recovery: after an unexpected restart the nameserver
distrusts its (possibly stale) database and rebuilds the namespace by
scanning the metadata each dataserver stores next to its chunks; the
primary's committed size wins over a lagging secondary.

Run:  python examples/consistency_and_recovery.py
"""

from repro.cluster import Cluster, ClusterConfig
from repro.fs.consistency import ConsistencyMode

MB = 1024 * 1024


def main():
    cluster = Cluster(
        ClusterConfig(
            pods=2, racks_per_pod=2, hosts_per_rack=2,
            scheme="mayflower", store_payload=True,
            consistency=ConsistencyMode.STRONG,
            seed=11,
        )
    )
    client = cluster.client("pod1-rack1-h1")
    payload = bytes(range(256)) * 36 * 1024  # 9 MB -> 3 chunks of 4 MB

    print("=== strong consistency ===")

    def scenario():
        meta = yield from client.create("log.dat", chunk_bytes=4 * MB)
        yield from client.append("log.dat", len(payload), payload)
        result = yield from client.read("log.dat")
        return meta, result

    meta, result = cluster.run(scenario())
    assert result.data == payload
    print(f"replicas: {list(meta.replicas)} (primary {meta.primary})")
    for t in result.transfers:
        role = "PRIMARY (mutable last chunk)" if t.replica == meta.primary else "any replica"
        print(f"  transfer: {t.size_bytes:>8d} bytes from {t.replica}  [{role}]")
    immutable = sum(t.size_bytes for t in result.transfers[:-1])
    print(f"{immutable / len(payload):.0%} of the file kept full replica freedom\n")

    print("=== nameserver crash recovery ===")
    nameserver = cluster.nameserver
    print(f"before crash: files = {nameserver.list_files()}, "
          f"size = {nameserver.lookup('log.dat')['size_bytes']}")

    # Simulate an unexpected restart with a stale database: wipe the
    # namespace, then rebuild from the dataservers.
    nameserver.delete("log.dat")
    assert nameserver.list_files() == []
    print("crash! namespace lost (stale database distrusted)")

    def rebuild():
        count = yield from nameserver.rebuild_from_dataservers(
            cluster.fabric, cluster.nameserver_host, sorted(cluster.dataservers)
        )
        return count

    recovered = cluster.run(rebuild())
    entry = nameserver.lookup("log.dat")
    print(f"rebuilt {recovered} file(s) from dataserver scans: "
          f"size={entry['size_bytes']} replicas={entry['replicas']}")
    assert entry["size_bytes"] == len(payload)

    cluster.shutdown()
    print("done.")


if __name__ == "__main__":
    main()
