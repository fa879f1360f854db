"""Client resilience: backoff policy, deadlines, and read resumption."""

import inspect
import random

import pytest

from repro.baselines.selectors import NearestReplicaSelector
from repro.cluster.cluster import CONTROLLER_ENDPOINT, Cluster, ClusterConfig
from repro.cluster.planners import SchemeReadPlanner
from repro.fs.client import MayflowerClient
from repro.fs.errors import OperationTimeoutError, ReplicaUnavailableError
from repro.fs.retry import IMMEDIATE_FAILOVER, RetryPolicy

MB = 1024 * 1024


class TestRetryPolicy:
    def test_backoff_grows_exponentially_then_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        delays = [policy.backoff(i, random.Random(0)) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_only_shrinks_and_is_seeded(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5, max_delay=10.0)
        a = [policy.backoff(0, random.Random(7)) for _ in range(3)]
        b = [policy.backoff(0, random.Random(7)) for _ in range(3)]
        assert a == b
        for delay in a:
            assert 0.5 <= delay <= 1.0

    def test_zero_jitter_draws_no_rng(self):
        policy = RetryPolicy(jitter=0.0)
        assert policy.backoff(0, None) == policy.base_delay

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_immediate_failover_has_no_delays(self):
        assert IMMEDIATE_FAILOVER.backoff(3, None) == 0.0


def make_client(mini_cluster, host, policy=IMMEDIATE_FAILOVER):
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
        retry=policy,
        retry_rng=random.Random(99),
    )


def populate(mini_cluster, name="f", size=2 * MB):
    meta_dict = mini_cluster.nameserver.create(name, chunk_bytes=4 * MB)
    for replica in meta_dict["replicas"]:
        ds = mini_cluster.dataservers[replica]
        ds.create_file(meta_dict)
        ds.load_preexisting(meta_dict["file_id"], size)
    mini_cluster.nameserver.record_append(name, size)
    return meta_dict


def off_replica_host(mini_cluster, meta):
    return next(
        h for h in sorted(mini_cluster.dataservers) if h not in meta["replicas"]
    )


def test_backoff_rides_out_transient_outage(mini_cluster):
    """All replicas down briefly: a client with backoff waits them out
    where immediate failover would fail."""
    meta = populate(mini_cluster)
    client = make_client(
        mini_cluster,
        off_replica_host(mini_cluster, meta),
        RetryPolicy(max_attempts=20, base_delay=0.05, max_delay=0.5),
    )

    def scenario():
        yield from client.stat("f")
        for replica in meta["replicas"]:
            mini_cluster.fabric.set_down(replica)
        # heal everything 1s from now, while the client is backing off
        for replica in meta["replicas"]:
            mini_cluster.loop.call_in(
                1.0, mini_cluster.fabric.set_down, replica, False
            )
        return (yield from client.read("f"))

    result = mini_cluster.run(scenario())
    assert len(result.data) == 2 * MB
    assert client.read_retries >= 1


def test_operation_deadline_bounds_the_wait(mini_cluster):
    meta = populate(mini_cluster)
    client = make_client(
        mini_cluster,
        off_replica_host(mini_cluster, meta),
        RetryPolicy(
            max_attempts=1000,
            base_delay=0.05,
            max_delay=0.2,
            operation_deadline=2.0,
        ),
    )

    def scenario():
        yield from client.stat("f")
        for replica in meta["replicas"]:
            mini_cluster.fabric.set_down(replica)  # never healed
        yield from client.read("f")

    with pytest.raises(OperationTimeoutError, match="deadline"):
        mini_cluster.run(scenario())
    assert mini_cluster.loop.now < 10.0  # gave up near the deadline


def test_budget_still_bounds_attempts_with_policy(mini_cluster):
    meta = populate(mini_cluster)
    client = make_client(
        mini_cluster,
        off_replica_host(mini_cluster, meta),
        RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.02),
    )

    def scenario():
        yield from client.stat("f")
        for replica in meta["replicas"]:
            mini_cluster.fabric.set_down(replica)
        yield from client.read("f")

    with pytest.raises(ReplicaUnavailableError, match="3 attempt"):
        mini_cluster.run(scenario())


def test_mid_transfer_abort_resumes_from_delivered_prefix(mini_cluster):
    """Kill the transfer's path mid-flight: the client re-requests only
    the remaining bytes and stitches the prefix with the remainder."""
    meta = populate(mini_cluster, size=8 * MB)
    client_host = off_replica_host(mini_cluster, meta)
    client = make_client(
        mini_cluster,
        client_host,
        RetryPolicy(max_attempts=10, base_delay=0.05, max_delay=0.5),
    )
    topo = mini_cluster.network.topology

    def scenario():
        yield from client.stat("f")

        # Once the transfer is moving, kill whatever trunk it crosses.
        def sever():
            flows = list(mini_cluster.network.active_flows.values())
            if not flows:
                return
            flow = flows[0]
            trunk = next(
                lid
                for lid in flow.path.link_ids
                if topo.links[lid].src in topo.switches
            )
            mini_cluster.controller.fail_link(trunk)
            mini_cluster.loop.call_in(
                0.3, mini_cluster.controller.restore_link, trunk
            )

        mini_cluster.loop.call_in(0.02, sever)
        return (yield from client.read("f"))

    result = mini_cluster.run(scenario())
    assert len(result.data) == 8 * MB
    # the stitched bytes must be exactly the stored payload (pre-existing
    # data is zero-filled)
    assert result.data == b"\x00" * (8 * MB)
    assert client.read_resumptions >= 1
    assert client.bytes_resumed > 0


def test_default_policy_fails_over_immediately(mini_cluster):
    meta = populate(mini_cluster)
    client = make_client(mini_cluster, off_replica_host(mini_cluster, meta))

    def scenario():
        yield from client.stat("f")
        for replica in meta["replicas"]:
            mini_cluster.fabric.set_down(replica)
        yield from client.read("f")

    with pytest.raises(ReplicaUnavailableError, match="3 attempt"):
        mini_cluster.run(scenario())
    assert mini_cluster.loop.now < 0.1  # three tries, no backoff between them
    assert client.read_retries == 2


def test_the_default_policy_is_the_papers_immediate_failover():
    assert ClusterConfig().retry is IMMEDIATE_FAILOVER
    default = inspect.signature(MayflowerClient).parameters["retry"].default
    assert default is IMMEDIATE_FAILOVER
    assert (IMMEDIATE_FAILOVER.max_attempts, IMMEDIATE_FAILOVER.max_delay) == (3, 0.0)
    assert IMMEDIATE_FAILOVER.operation_deadline is None
    assert IMMEDIATE_FAILOVER.rpc_timeout is None


#: Patient enough to outlast every outage below; only the deadline gives up.
TWO_SECONDS = RetryPolicy(
    max_attempts=1000, base_delay=0.05, max_delay=0.2, jitter=0.0,
    operation_deadline=2.0,
)


def nameserver_outage(mini_cluster, seconds):
    """Take the nameserver *service* away (hosts stay up) for ``seconds``."""
    host, service = mini_cluster.nameserver_host, mini_cluster.nameserver
    mini_cluster.fabric.unregister(host, "nameserver")
    mini_cluster.loop.call_in(
        seconds, mini_cluster.fabric.register, host, "nameserver", service
    )


def test_deadline_covers_the_planner_phase():
    """Controller down for good: the plan phase must give up at the
    operation's deadline, not after max_attempts backoffs."""
    cluster = Cluster(
        ClusterConfig(
            pods=2, racks_per_pod=2, hosts_per_rack=2, seed=1,
            retry=TWO_SECONDS,
        )
    )
    client = cluster.client("pod1-rack1-h1")

    def scenario():
        yield from client.create("f", chunk_bytes=4 * MB)
        yield from client.append("f", 1 * MB)
        cluster.fabric.set_down(CONTROLLER_ENDPOINT)
        started = cluster.loop.now
        try:
            yield from client.read("f")
        except OperationTimeoutError:
            return cluster.loop.now - started

    waited = cluster.run(scenario())
    cluster.shutdown()
    assert waited is not None and 1.5 < waited <= 2.0


def test_deadline_does_not_restart_between_lookup_and_transfer(mini_cluster):
    """The lookup waits out a 1.9 s nameserver outage, then every replica
    stays down until 3.7 s: under one 2 s budget that read times out."""
    meta = populate(mini_cluster)
    client = make_client(
        mini_cluster, off_replica_host(mini_cluster, meta), TWO_SECONDS
    )

    def scenario():
        nameserver_outage(mini_cluster, 1.9)
        for replica in meta["replicas"]:
            mini_cluster.fabric.set_down(replica)
            mini_cluster.loop.call_in(
                3.7, mini_cluster.fabric.set_down, replica, False
            )
        try:
            yield from client.read("f")
        except OperationTimeoutError:
            return mini_cluster.loop.now

    gave_up_at = mini_cluster.run(scenario())
    assert gave_up_at is not None and 1.9 < gave_up_at <= 2.0


@pytest.mark.parametrize(
    "operation, booked",
    [("create", "metadata_retries"), ("read", "read_retries")],
)
def test_nameserver_retries_are_booked_under_the_owning_operation(
    mini_cluster, operation, booked
):
    meta = populate(mini_cluster)
    client = make_client(
        mini_cluster,
        off_replica_host(mini_cluster, meta),
        RetryPolicy(max_attempts=20, base_delay=0.05, max_delay=0.2, jitter=0.0),
    )

    def scenario():
        nameserver_outage(mini_cluster, 1.5)
        if operation == "create":
            yield from client.create("g", chunk_bytes=4 * MB)
        else:
            yield from client.read("f")

    mini_cluster.run(scenario())
    counters = {
        name: getattr(client, name, None)
        for name in ("read_retries", "append_retries", "metadata_retries")
    }
    # 0.05 + 0.1 + 7 x 0.2 s of backoff outlasts the 1.5 s outage
    assert counters == {
        "read_retries": 0, "append_retries": 0, "metadata_retries": 0,
        booked: 9,
    }
