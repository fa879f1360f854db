"""End-to-end client library tests over the mini cluster."""

import random

import pytest

from repro.baselines.selectors import NearestReplicaSelector
from repro.cluster.planners import SchemeReadPlanner
from repro.fs.client import MayflowerClient
from repro.fs.consistency import ConsistencyMode
from repro.fs.errors import InvalidRequestError
from repro.rpc.errors import RemoteInvocationError

MB = 1024 * 1024


def make_client(mini_cluster, host, consistency=ConsistencyMode.SEQUENTIAL):
    topo = mini_cluster.network.topology
    planner = SchemeReadPlanner(
        NearestReplicaSelector(topo, random.Random(5))
    )
    return MayflowerClient(
        host_id=host,
        loop=mini_cluster.loop,
        fabric=mini_cluster.fabric,
        nameserver_endpoint=mini_cluster.nameserver_host,
        planner=planner,
        consistency=consistency,
    )


def first_non_replica(mini_cluster, meta):
    return next(
        h for h in sorted(mini_cluster.dataservers) if h not in meta.replicas
    )


def test_create_append_read_round_trip(mini_cluster):
    client0 = make_client(mini_cluster, sorted(mini_cluster.dataservers)[0])
    payload = bytes(range(256)) * 4 * 1024  # 1 MB pattern

    def scenario():
        meta = yield from client0.create("data.bin", chunk_bytes=4 * MB)
        new_size = yield from client0.append("data.bin", len(payload), payload)
        assert new_size == len(payload)
        result = yield from client0.read("data.bin")
        return meta, result

    meta, result = mini_cluster.run(scenario())
    assert result.data == payload
    assert result.file_size == len(payload)
    assert result.length == len(payload)
    assert len(meta.replicas) == 3


def test_read_range(mini_cluster):
    client0 = make_client(mini_cluster, sorted(mini_cluster.dataservers)[0])
    payload = b"0123456789" * 120000

    def scenario():
        yield from client0.create("f", chunk_bytes=4 * MB)
        yield from client0.append("f", len(payload), payload)
        result = yield from client0.read("f", offset=10, length=25)
        return result

    result = mini_cluster.run(scenario())
    assert result.data == payload[10:35]


def test_read_invalid_range(mini_cluster):
    client0 = make_client(mini_cluster, sorted(mini_cluster.dataservers)[0])

    def scenario():
        yield from client0.create("f", chunk_bytes=4 * MB)
        yield from client0.append("f", 100, b"x" * 100)
        yield from client0.read("f", offset=50, length=100)

    with pytest.raises(InvalidRequestError):
        mini_cluster.run(scenario())


def test_delete_removes_everywhere(mini_cluster):
    client0 = make_client(mini_cluster, sorted(mini_cluster.dataservers)[0])

    def scenario():
        meta = yield from client0.create("gone")
        yield from client0.delete("gone")
        return meta

    meta = mini_cluster.run(scenario())
    assert not mini_cluster.nameserver.exists("gone")
    for replica in meta.replicas:
        assert not mini_cluster.dataservers[replica].has_file(meta.file_id)


def test_metadata_cache_hits(mini_cluster):
    client0 = make_client(mini_cluster, sorted(mini_cluster.dataservers)[0])

    def scenario():
        yield from client0.create("f", chunk_bytes=4 * MB)
        yield from client0.append("f", 100, b"x" * 100)
        yield from client0.read("f")
        yield from client0.read("f")
        yield from client0.read("f")

    mini_cluster.run(scenario())
    # create/append/read all hit the local cache after the create
    assert client0.cache_hits >= 3
    assert client0.cache_misses == 0


def test_cache_expiry_causes_lookup(mini_cluster):
    client0 = make_client(mini_cluster, sorted(mini_cluster.dataservers)[0])
    client0.metadata_ttl = 0.001

    def scenario():
        yield from client0.create("f", chunk_bytes=4 * MB)
        yield from client0.append("f", 100, b"x" * 100)
        from repro.sim import Delay
        yield Delay(1.0)
        yield from client0.read("f")

    mini_cluster.run(scenario())
    assert client0.cache_misses >= 1


def test_reader_discovers_append_through_read_reply(mini_cluster):
    """A second client with a stale cached size learns the new size from
    the read reply (append-only semantics, §3.3)."""
    hosts = sorted(mini_cluster.dataservers)
    writer = make_client(mini_cluster, hosts[0])
    reader = make_client(mini_cluster, hosts[1])

    def scenario():
        yield from writer.create("f", chunk_bytes=4 * MB)
        yield from writer.append("f", 100, b"a" * 100)
        # reader caches metadata at size 100
        yield from reader.read("f")
        # writer appends more
        yield from writer.append("f", 100, b"b" * 100)
        # reader still reads via cached (stale-size) metadata…
        result = yield from reader.read("f", offset=0, length=100)
        return result

    result = mini_cluster.run(scenario())
    # …but the reply told it the file is now 200 bytes
    assert result.file_size == 200
    assert reader._cache["f"].metadata.size_bytes == 200


def test_strong_consistency_reads_last_chunk_from_primary(mini_cluster):
    hosts = sorted(mini_cluster.dataservers)
    client0 = make_client(mini_cluster, hosts[0], ConsistencyMode.STRONG)
    payload = b"z" * (9 * MB)  # 3 chunks of 4 MB -> last chunk mutable

    def scenario():
        meta = yield from client0.create("f", chunk_bytes=4 * MB)
        yield from client0.append("f", len(payload), payload)
        result = yield from client0.read("f")
        return meta, result

    meta, result = mini_cluster.run(scenario())
    assert result.data == payload
    # the tail transfer must come from the primary
    tail_transfer = result.transfers[-1]
    assert tail_transfer.replica == meta.primary
    assert len(result.transfers) == 2


def test_read_of_missing_file_raises(mini_cluster):
    client0 = make_client(mini_cluster, sorted(mini_cluster.dataservers)[0])

    def scenario():
        yield from client0.read("ghost")

    with pytest.raises(RemoteInvocationError, match="no file"):
        mini_cluster.run(scenario())


def test_read_duration_reflects_network_time(mini_cluster):
    """A 125 MB remote read at 1 Gbps takes ~1 s of simulated time."""
    hosts = sorted(mini_cluster.dataservers)
    client0 = make_client(mini_cluster, hosts[0])
    size = 125 * 1000 * 1000  # 1e9 bits

    def scenario():
        meta = yield from client0.create("big", chunk_bytes=256 * MB)
        for replica in meta.replicas:
            mini_cluster.dataservers[replica].load_preexisting(meta.file_id, size)
        mini_cluster.nameserver.record_append("big", size)
        # refresh the cached metadata so the client sees the bootstrapped size
        yield from client0.stat("big")
        result = yield from client0.read("big")
        return result

    result = mini_cluster.run(scenario())
    # bootstrapped data is zero-filled
    assert len(result.data) == size
    assert result.duration == pytest.approx(1.0, rel=0.05)
