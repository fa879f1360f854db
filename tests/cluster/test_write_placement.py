"""Unit tests for Flowserver-co-designed write placement (§3.3 extension)."""

import random

import pytest

from repro.cluster.planners import FlowserverWritePlacement
from repro.core import build_control_plane
from repro.fs.errors import InvalidRequestError
from repro.net import three_tier
from tests.fs.placement_oracle import validate_fault_domains

GB = 8e9
MB = 8e6


@pytest.fixture()
def env():
    topo = three_tier()
    plane = build_control_plane(topo)
    placement = FlowserverWritePlacement(
        topo, plane.routing, plane.flowserver, random.Random(3),
        candidates_per_tier=64,
    )
    return (topo, plane.loop, plane.network, plane.routing, plane.controller,
            plane.flowserver, placement)


def test_respects_fault_domains(env):
    topo, *_, placement = env
    for _ in range(25):
        replicas = placement.place(3, writer="pod0-rack0-h0")
        assert len(set(replicas)) == 3
        primary, second, third = (topo.hosts[r] for r in replicas)
        assert second.pod == primary.pod
        assert second.rack != primary.rack
        assert third.pod != primary.pod
        assert validate_fault_domains(topo, replicas) == []


def test_no_replica_on_writer(env):
    """The evaluation's workload keeps clients off replica hosts; the
    co-designed placement honours that for every slot."""
    topo, *_, placement = env
    for _ in range(25):
        replicas = placement.place(3, writer="pod1-rack2-h3")
        assert "pod1-rack2-h3" not in replicas


def test_replication_bounds(env):
    topo, *_, placement = env
    assert len(placement.place(1)) == 1
    assert len(set(placement.place(5, writer="pod0-rack0-h0"))) == 5
    with pytest.raises(InvalidRequestError):
        placement.place(0)


def test_avoids_congested_primary(env):
    """Hosts with saturated edge downlinks lose to an idle host."""
    topo, loop, net, routing, controller, flowserver, placement = env
    writer = "pod0-rack0-h0"
    idle = "pod0-rack1-h0"  # same pod as the writer, 4-hop 1 Gbps path
    # Saturate every other host's downlink with two rack-local incoming
    # flows (each source uplink carries two flows, so each flow's estimate
    # is ~500 Mbps and every loaded downlink is fully subscribed).
    for rack in topo.racks():
        hosts = [h.host_id for h in topo.hosts_in_rack(rack)]
        n = len(hosts)
        for i, src in enumerate(hosts):
            if src == writer:  # keep the writer's own uplink clear
                continue
            for step in (1, 2):
                dst = hosts[(i + step) % n]
                if dst in (idle, writer) or dst == src:
                    continue
                flowserver.select_path_only(dst, src, 100 * GB)
    replicas = placement.place(3, writer=writer)
    assert replicas[0] == idle


def test_unknown_writer_uses_downlink_contention(env):
    topo, loop, net, routing, controller, flowserver, placement = env
    replicas = placement.place(3, writer=None)
    assert len(set(replicas)) == 3


def test_invalid_candidates_per_tier(env):
    topo, _, _, routing, _, flowserver, _ = env
    with pytest.raises(ValueError):
        FlowserverWritePlacement(
            topo, routing, flowserver, random.Random(1), candidates_per_tier=0
        )


def test_nameserver_integration(tmp_path, env):
    """The nameserver passes the writer through to the policy."""
    topo, *_, placement = env
    from repro.fs.nameserver import Nameserver

    ns = Nameserver(tmp_path / "db", placement, rng=random.Random(1))
    meta = ns.create("f", writer="pod0-rack0-h0")
    assert meta["replicas"][0] != "pod0-rack0-h0"
    assert validate_fault_domains(topo, meta["replicas"]) == []
    ns.close()


def test_cluster_integration(tmp_path):
    """A cluster configured with placement='flowserver' creates files."""
    from repro.cluster import Cluster, ClusterConfig

    cluster = Cluster(
        ClusterConfig(
            pods=2, racks_per_pod=2, hosts_per_rack=2,
            scheme="mayflower", placement="flowserver",
            db_directory=tmp_path / "db", seed=4,
        )
    )
    client = cluster.client("pod1-rack0-h0")

    def scenario():
        meta = yield from client.create("f")
        return meta

    meta = cluster.run(scenario())
    assert len(meta.replicas) == 3
    assert meta.replicas[0] != "pod1-rack0-h0"
    cluster.shutdown()


def test_flowserver_placement_requires_flowserver(tmp_path):
    from repro.cluster import Cluster, ClusterConfig

    with pytest.raises(ValueError, match="requires a flowserver"):
        Cluster(
            ClusterConfig(
                pods=2, racks_per_pod=2, hosts_per_rack=2,
                scheme="hdfs-ecmp", placement="flowserver",
                db_directory=tmp_path / "db",
            )
        )
