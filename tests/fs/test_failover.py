"""Failure injection: replica failover during reads."""

import random

import pytest

from repro.baselines.selectors import NearestReplicaSelector
from repro.cluster.planners import SchemeReadPlanner
from repro.fs.client import MayflowerClient
from repro.fs.errors import ReplicaUnavailableError
from repro.fs.retry import IMMEDIATE_FAILOVER, RetryPolicy

MB = 1024 * 1024


def make_client(mini_cluster, host, retry=IMMEDIATE_FAILOVER):
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
        retry=retry,
    )


def populate(mini_cluster, name="f", size=2 * MB):
    meta_dict = mini_cluster.nameserver.create(name, chunk_bytes=4 * MB)
    for replica in meta_dict["replicas"]:
        ds = mini_cluster.dataservers[replica]
        ds.create_file(meta_dict)
        ds.load_preexisting(meta_dict["file_id"], size)
    mini_cluster.nameserver.record_append(name, size)
    return meta_dict


def test_read_fails_over_to_surviving_replica(mini_cluster):
    meta = populate(mini_cluster)
    client_host = next(
        h for h in sorted(mini_cluster.dataservers) if h not in meta["replicas"]
    )
    client = make_client(mini_cluster, client_host)

    def scenario():
        # learn which replica the planner would pick, then kill it
        fresh = yield from client.stat("f")
        topo = mini_cluster.network.topology
        preferred = min(
            fresh.replicas,
            key=lambda r: topo.network_distance(client_host, r),
        )
        mini_cluster.fabric.set_down(preferred)
        result = yield from client.read("f")
        return preferred, result

    preferred, result = mini_cluster.run(scenario())
    assert client.read_failovers >= 1
    assert all(t.replica != preferred or t.flow_id is None for t in result.transfers)
    assert len(result.data) == 2 * MB


def test_read_fails_when_all_replicas_down(mini_cluster):
    meta = populate(mini_cluster)
    client_host = next(
        h for h in sorted(mini_cluster.dataservers) if h not in meta["replicas"]
    )
    client = make_client(mini_cluster, client_host)

    def scenario():
        yield from client.stat("f")
        for replica in meta["replicas"]:
            mini_cluster.fabric.set_down(replica)
        yield from client.read("f")

    with pytest.raises(ReplicaUnavailableError):
        mini_cluster.run(scenario())


def test_attempt_budget_respected(mini_cluster):
    meta = populate(mini_cluster)
    client_host = next(
        h for h in sorted(mini_cluster.dataservers) if h not in meta["replicas"]
    )
    client = make_client(mini_cluster, client_host, RetryPolicy(max_attempts=1))

    def scenario():
        yield from client.stat("f")
        for replica in meta["replicas"]:
            mini_cluster.fabric.set_down(replica)
        yield from client.read("f")

    with pytest.raises(ReplicaUnavailableError):
        mini_cluster.run(scenario())
    assert client.read_failovers == 0  # one attempt, no retries


def test_recovered_replica_serves_again(mini_cluster):
    meta = populate(mini_cluster)
    client_host = next(
        h for h in sorted(mini_cluster.dataservers) if h not in meta["replicas"]
    )
    client = make_client(mini_cluster, client_host)

    def scenario():
        yield from client.stat("f")
        for replica in meta["replicas"]:
            mini_cluster.fabric.set_down(replica)
        for replica in meta["replicas"]:
            mini_cluster.fabric.set_down(replica, down=False)
        result = yield from client.read("f")
        return result

    result = mini_cluster.run(scenario())
    assert len(result.data) == 2 * MB
    assert client.read_failovers == 0
