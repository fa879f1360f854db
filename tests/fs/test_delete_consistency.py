"""§3.4's documented consistency concession around deletes.

"The only limitation to this approach is that it cannot provide strong
consistency when read and append requests are interleaved with delete
requests; deleted files in Mayflower can briefly appear to be readable
due to client-side caching."

These tests pin that behaviour down: a client holding cached metadata can
still address a deleted file (until the dataservers reclaim it or the
cache expires), and a fresh lookup correctly fails.
"""

import random

import pytest

from repro.baselines.selectors import NearestReplicaSelector
from repro.cluster.planners import SchemeReadPlanner
from repro.fs.client import MayflowerClient
from repro.rpc.errors import RemoteInvocationError

MB = 1024 * 1024


def make_client(mini_cluster, host):
    topo = mini_cluster.network.topology
    return MayflowerClient(
        host_id=host,
        loop=mini_cluster.loop,
        fabric=mini_cluster.fabric,
        nameserver_endpoint=mini_cluster.nameserver_host,
        planner=SchemeReadPlanner(
            NearestReplicaSelector(topo, random.Random(5))
        ),
    )


def test_cached_metadata_outlives_delete_until_reclaim(mini_cluster):
    hosts = sorted(mini_cluster.dataservers)
    writer = make_client(mini_cluster, hosts[0])
    reader = make_client(mini_cluster, hosts[1])
    payload = b"x" * (1 * MB)

    def scenario():
        meta = yield from writer.create("doomed", chunk_bytes=4 * MB)
        yield from writer.append("doomed", len(payload), payload)
        # reader caches the mapping
        first = yield from reader.read("doomed")
        assert first.data == payload
        # namespace delete happens, but pretend the dataserver reclaim
        # lags (delete only the namespace entry, not the chunks)
        mini_cluster.nameserver.delete("doomed")
        # the reader's cached mapping still addresses live chunks: the
        # "briefly readable" window of §3.4
        second = yield from reader.read("doomed")
        return meta, second

    meta, second = mini_cluster.run(scenario())
    assert second.data == payload
    assert not mini_cluster.nameserver.exists("doomed")


def test_read_after_full_delete_fails_at_dataserver(mini_cluster):
    hosts = sorted(mini_cluster.dataservers)
    writer = make_client(mini_cluster, hosts[0])
    reader = make_client(mini_cluster, hosts[1])
    payload = b"x" * (1 * MB)

    def scenario():
        yield from writer.create("doomed", chunk_bytes=4 * MB)
        yield from writer.append("doomed", len(payload), payload)
        yield from reader.read("doomed")  # warm the cache
        yield from writer.delete("doomed")  # full delete incl. replicas
        yield from reader.read("doomed")  # cached mapping -> dead chunks

    with pytest.raises(RemoteInvocationError, match="no file"):
        mini_cluster.run(scenario())


def test_fresh_lookup_after_delete_fails_cleanly(mini_cluster):
    hosts = sorted(mini_cluster.dataservers)
    writer = make_client(mini_cluster, hosts[0])
    reader = make_client(mini_cluster, hosts[1])
    reader.metadata_ttl = 0.0  # no caching at all

    def scenario():
        yield from writer.create("doomed", chunk_bytes=4 * MB)
        yield from writer.append("doomed", 100, b"y" * 100)
        yield from writer.delete("doomed")
        yield from reader.read("doomed")

    from repro.rpc.errors import RemoteInvocationError
    with pytest.raises(RemoteInvocationError, match="no file named"):
        mini_cluster.run(scenario())
