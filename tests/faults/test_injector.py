"""End-to-end tests for the fault injector against a live cluster."""

import re

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.faults import EVENT_KINDS, FaultEvent, FaultInjector, FaultPlan
from repro.fs.retry import RetryPolicy
from repro.sdn.controller import SwitchUnreachableError


@pytest.fixture()
def cluster():
    c = Cluster(
        ClusterConfig(
            scheme="mayflower",
            seed=3,
            retry=RetryPolicy(max_attempts=10, rpc_timeout=30.0),
        )
    )
    yield c
    c.shutdown()


def pick_trunk(cluster):
    topo = cluster.topology
    return sorted(
        lid
        for lid, link in topo.links.items()
        if link.src in topo.switches and link.dst in topo.switches
    )[0]


def test_link_down_then_auto_recovery(cluster):
    trunk = pick_trunk(cluster)
    plan = FaultPlan((FaultEvent(1.0, "link_down", trunk, duration=2.0),))
    injector = cluster.inject_faults(plan)

    cluster.loop.run(until=1.5)
    assert not cluster.topology.links[trunk].up
    cluster.loop.run(until=3.5)
    assert cluster.topology.links[trunk].up
    assert injector.events_applied == 2
    assert [e.kind for e in injector.journal] == ["link_down", "link_up"]


def test_switch_fail_marks_adjacent_links_down(cluster):
    switch = sorted(cluster.topology.switches)[0]
    plan = FaultPlan((FaultEvent(1.0, "switch_fail", switch, duration=2.0),))
    cluster.inject_faults(plan)

    cluster.loop.run(until=1.5)
    with pytest.raises(SwitchUnreachableError):
        cluster.controller.query_flow_stats(switch)
    adjacent = [
        lid
        for lid, link in cluster.topology.links.items()
        if switch in (link.src, link.dst)
    ]
    assert adjacent
    for lid in adjacent:
        assert not cluster.topology.links[lid].up
    cluster.loop.run(until=3.5)
    cluster.controller.query_flow_stats(switch)  # reachable again
    for lid in adjacent:
        assert cluster.topology.links[lid].up


def test_dataserver_crash_takes_endpoint_down(cluster):
    host = sorted(cluster.topology.hosts)[5]
    plan = FaultPlan((FaultEvent(1.0, "dataserver_crash", host, duration=2.0),))
    cluster.inject_faults(plan)

    cluster.loop.run(until=1.5)
    assert cluster.fabric.is_down(host)
    cluster.loop.run(until=3.5)
    assert not cluster.fabric.is_down(host)


def test_stats_poll_loss_flips_collector_suppression(cluster):
    plan = FaultPlan((FaultEvent(1.0, "stats_poll_loss", duration=2.0),))
    cluster.inject_faults(plan)
    collector = cluster.flowserver.collector

    cluster.loop.run(until=1.5)
    assert collector.suppress_polls
    cluster.loop.run(until=3.5)
    assert not collector.suppress_polls


def test_rpc_delay_spike_scales_fabric_latency(cluster):
    plan = FaultPlan(
        (FaultEvent(1.0, "rpc_delay_spike", duration=2.0, magnitude=10.0),)
    )
    cluster.inject_faults(plan)

    cluster.loop.run(until=1.5)
    assert cluster.fabric.delay_factor == 10.0
    cluster.loop.run(until=3.5)
    assert cluster.fabric.delay_factor == 1.0


def test_every_fault_kind_has_exactly_one_handler():
    """The kind table and the injector's ``_do_<kind>`` handlers name the
    same set, so a kind dropped on one side fails here, not mid-run."""
    handlers = {name[4:] for name in dir(FaultInjector) if name.startswith("_do_")}
    assert EVENT_KINDS == handlers


@pytest.mark.parametrize(
    "event",
    [
        FaultEvent(1.0, "link_down", "pod0-rack0->no-such-switch", 1.0),
        FaultEvent(1.0, "link_up", "pod0-rack0"),
        FaultEvent(1.0, "switch_fail", "pod0-rack0-h0", 1.0),
        FaultEvent(1.0, "switch_recover", "no-such-switch"),
        FaultEvent(1.0, "dataserver_crash", "pod0-rack0", 1.0),
        FaultEvent(1.0, "dataserver_restart", "pod9-rack0-h0"),
        FaultEvent(1.0, "lease_expire", "pod0-rack0-h9"),
        FaultEvent(1.0, "stats_poll_loss", "pod0-rack0", 1.0),
        FaultEvent(1.0, "rpc_delay_spike", "pod0-rack0-h0", 1.0, magnitude=2.0),
    ],
    ids=lambda event: event.kind,
)
def test_unknown_target_rejected_before_anything_is_scheduled(event):
    """A misspelt target fails when the plan is armed: it neither crashes
    the loop at the event's time nor silently does nothing."""
    small = Cluster(ClusterConfig(pods=2, racks_per_pod=2, hosts_per_rack=2))
    try:
        valid = FaultEvent(0.5, "link_down", pick_trunk(small), 1.0)
        pending = small.loop.pending_events
        with pytest.raises(ValueError, match=re.escape(repr(event.target))):
            small.inject_faults(FaultPlan((valid, event)))
        assert small.loop.pending_events == pending
    finally:
        small.shutdown()


def test_past_events_rejected(cluster):
    cluster.loop.run(until=5.0)
    injector = FaultInjector.for_cluster(cluster)
    with pytest.raises(ValueError, match="in the past"):
        injector.arm(FaultPlan((FaultEvent(1.0, "link_down", pick_trunk(cluster)),)))


def test_link_down_aborts_inflight_read_but_client_recovers(cluster):
    """A trunk failure mid-read aborts the flow; the retry layer finishes
    the job anyway and records the abort in the injector's tally."""
    name = "victim"
    metadata_dict = cluster.nameserver.create(name, replication=3)
    file_id = metadata_dict["file_id"]
    replicas = metadata_dict["replicas"]
    size = 512 * 1024 * 1024  # big enough to still be in flight at t=0.2
    for replica in replicas:
        ds = cluster.dataservers[replica]
        ds.create_file(metadata_dict)
        ds.load_preexisting(file_id, size)
    cluster.nameserver.record_append(name, size)

    client_host = sorted(
        h for h in cluster.topology.hosts if h not in replicas
    )[0]
    client = cluster.client(client_host)

    # Fail every link out of each replica's edge switch region by failing
    # all core trunks briefly — some in-flight flow will cross one.
    topo = cluster.topology
    trunks = sorted(
        lid
        for lid, link in topo.links.items()
        if link.src in topo.switches and link.dst in topo.switches
    )
    events = tuple(
        FaultEvent(0.2, "link_down", lid, duration=1.0) for lid in trunks
    )
    injector = cluster.inject_faults(FaultPlan(events))

    result = cluster.run(client.read(name), name="read")
    assert len(result.data or b"") in (0, size)  # payload store off -> None
    assert result.length == size
    assert injector.flows_aborted_by_faults >= 1
    assert client.read_retries >= 1


def test_faults_reach_the_lease_manager_and_the_collector(cluster):
    """``lease_expire`` revokes the nameserver's one lease manager's
    grant, and ``stats_poll_loss`` silences the Flowserver's collector."""
    from repro.experiments.metrics import resilience_summary

    collector = cluster.flowserver.collector
    manager = cluster.lease_manager
    name = "/faults/file-0"
    client = cluster.client("pod3-rack2-h1")

    def write():
        metadata = yield from client.create(name, replication=3)
        yield from client.append(name, 16 * 1024)
        return metadata

    # stop well inside the 30 s lease term the append was granted
    metadata = cluster.run(write(), until=1.0)
    lease = manager.current(metadata.file_id)
    assert lease.holder == metadata.primary
    assert lease.valid_at(cluster.loop.now)

    start = cluster.loop.now
    injector = cluster.inject_faults(
        FaultPlan((
            FaultEvent(start + 1.0, "stats_poll_loss", duration=2.0),
            FaultEvent(start + 1.0, "lease_expire", metadata.primary),
        ))
    )
    cluster.loop.run(until=start + 1.5)
    assert collector.suppress_polls
    assert not manager.current(metadata.file_id).valid_at(cluster.loop.now)
    details = {e.kind: e.detail for e in injector.journal}
    assert "no-op" not in details["stats_poll_loss"]
    assert details["lease_expire"].startswith("expired 1 lease(s)")

    collector.poll_once()  # a tick lost to the outage
    assert resilience_summary(cluster, [], injector).polls_lost == 1

    cluster.loop.run(until=start + 3.5)
    assert not collector.suppress_polls
    # the fenced primary re-acquires under a higher epoch to commit again
    cluster.run(client.append(name, 1024))
    assert manager.current_epoch(metadata.file_id) == lease.epoch + 1
