#!/usr/bin/env python3
"""Quickstart: a complete Mayflower cluster in a few lines.

Builds a small deployment (2 pods, 8 hosts), then walks the whole file
lifecycle through the real client library — create, append, read (with
the Flowserver picking replicas and paths), strong-consistency stat,
delete — and prints what happened at each step.

Run:  python examples/quickstart.py
"""

from repro.cluster import Cluster, ClusterConfig

MB = 1024 * 1024


def main():
    cluster = Cluster(
        ClusterConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=2,
            scheme="mayflower",
            store_payload=True,  # keep real bytes so we can verify them
            seed=7,
        )
    )
    print(f"cluster up: {len(cluster.topology.hosts)} hosts, "
          f"{len(cluster.topology.switches)} switches, "
          f"nameserver on {cluster.nameserver_host}")

    client = cluster.client("pod1-rack0-h0")
    payload = b"The quick brown fox jumps over the lazy dog. " * 20000  # ~0.9 MB

    def scenario():
        # 1. create: the nameserver places 3 replicas across fault domains
        meta = yield from client.create("demo.bin", chunk_bytes=64 * MB)
        print(f"created {meta.name}: replicas={list(meta.replicas)} "
              f"(primary {meta.primary})")

        # 2. append: ordered by the primary, relayed to the secondaries
        new_size = yield from client.append("demo.bin", len(payload), payload)
        print(f"appended {len(payload)} bytes -> file size {new_size}")

        # 3. read: the client asks the Flowserver which replica + path to
        #    use given current network conditions
        result = yield from client.read("demo.bin")
        assert result.data == payload, "read-back mismatch!"
        sources = [t.replica for t in result.transfers]
        print(f"read {result.length} bytes from {sources} "
              f"in {result.duration:.3f} simulated seconds")

        # 4. metadata
        meta = yield from client.stat("demo.bin")
        print(f"stat: size={meta.size_bytes} chunks={meta.num_chunks}")

        # 5. delete: namespace entry and all replicas reclaimed
        yield from client.delete("demo.bin")
        print("deleted demo.bin")

    cluster.run(scenario())
    if cluster.flowserver is not None:
        print(f"flowserver served {cluster.flowserver.requests_served} "
              f"selection request(s)")
    cluster.shutdown()
    print("done.")


if __name__ == "__main__":
    main()
