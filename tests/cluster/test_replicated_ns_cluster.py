"""Full-cluster integration with the Paxos-replicated nameserver."""

import pytest

from repro.cluster import Cluster, ClusterConfig

MB = 1024 * 1024


def build(tmp_path, replicas=3):
    return Cluster(
        ClusterConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=2,
            scheme="mayflower",
            store_payload=True,
            seed=13,
            db_directory=tmp_path / "ns",
            nameserver_replicas=replicas,
        )
    )


def test_invalid_replica_count_rejected(tmp_path):
    with pytest.raises(ValueError, match="must be 1 or >= 3"):
        build(tmp_path, replicas=2)


def test_file_lifecycle_through_replicated_ns(tmp_path):
    cluster = build(tmp_path)
    client = cluster.client("pod1-rack1-h1")
    payload = b"replicated!" * 50000

    def scenario():
        yield from client.create("f", chunk_bytes=4 * MB)
        yield from client.append("f", len(payload), payload)
        result = yield from client.read("f")
        return result

    result = cluster.run(scenario())
    assert result.data == payload
    # every namespace replica agrees
    for endpoint in cluster.nameserver_endpoints:
        replica = cluster._ns_replicas[endpoint]
        assert replica.lookup("f")["size_bytes"] == len(payload)
    cluster.shutdown()


def test_client_survives_nameserver_replica_failure(tmp_path):
    cluster = build(tmp_path)
    client = cluster.client("pod1-rack1-h1")
    payload = b"paxos" * 1000

    def scenario():
        before = yield from client.create("before-crash", chunk_bytes=4 * MB)
        # un-leased push/commit: metadata primaryship orders the append
        # and the epoch-stamped size report goes through the Paxos log
        yield from client.append("before-crash", len(payload), payload)
        yield from client.append("before-crash", len(payload), payload)
        # crash the first nameserver replica *process* (its host — which
        # also runs a dataserver — stays up); the client fails over
        cluster.fabric.unregister(cluster.nameserver_endpoints[0], "nameserver")
        meta = yield from client.create("after-crash", chunk_bytes=4 * MB)
        return before, meta

    before, meta = cluster.run(scenario())
    assert meta.name == "after-crash"
    surviving = cluster._ns_replicas[cluster.nameserver_endpoints[1]]
    assert surviving.lookup("before-crash")["size_bytes"] == 2 * len(payload)
    assert surviving.exists("after-crash")
    assert cluster.lease_manager is None
    ledgers = [
        cluster.dataservers[r].append_ledger(before.file_id)
        for r in before.replicas
    ]
    assert [(e.offset, e.length) for e in ledgers[0]] == [
        (0, len(payload)), (len(payload), len(payload)),
    ]
    assert all(ledger == ledgers[0] for ledger in ledgers)
    cluster.shutdown()
