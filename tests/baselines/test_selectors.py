"""Unit tests for replica selectors."""

import random
from collections import Counter

import pytest

from repro.baselines.monitor import EndHostMonitor
from repro.baselines.selectors import NearestReplicaSelector, SinbadRSelector
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sim import EventLoop

GB = 8e9


@pytest.fixture()
def env():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    monitor = EndHostMonitor(loop, net, sample_interval=1.0, auto_start=False)
    return topo, loop, net, table, monitor


class TestNearest:
    def test_prefers_same_host(self, env):
        topo, *_ = env
        selector = NearestReplicaSelector(topo, random.Random(1))
        chosen = selector.select_replica(
            "pod0-rack0-h0", ["pod0-rack0-h0", "pod0-rack0-h1", "pod1-rack0-h0"]
        )
        assert chosen == "pod0-rack0-h0"

    def test_prefers_same_rack_over_pod(self, env):
        topo, *_ = env
        selector = NearestReplicaSelector(topo, random.Random(1))
        chosen = selector.select_replica(
            "pod0-rack0-h0", ["pod0-rack0-h1", "pod0-rack1-h0", "pod1-rack0-h0"]
        )
        assert chosen == "pod0-rack0-h1"

    def test_ties_broken_randomly(self, env):
        """Equidistant replicas: §1 says this degenerates to random choice."""
        topo, *_ = env
        selector = NearestReplicaSelector(topo, random.Random(1))
        replicas = ["pod1-rack0-h0", "pod2-rack0-h0", "pod3-rack0-h0"]
        counts = Counter(
            selector.select_replica("pod0-rack0-h0", replicas) for _ in range(300)
        )
        assert len(counts) == 3  # all three get picked sometimes

    def test_empty_replicas_rejected(self, env):
        topo, *_ = env
        selector = NearestReplicaSelector(topo, random.Random(1))
        with pytest.raises(ValueError):
            selector.select_replica("pod0-rack0-h0", [])


class TestSinbadR:
    def test_local_replica_wins(self, env):
        topo, loop, net, table, monitor = env
        selector = SinbadRSelector(topo, monitor, random.Random(1))
        chosen = selector.select_replica(
            "pod0-rack0-h0", ["pod0-rack0-h0", "pod1-rack0-h0"]
        )
        assert chosen == "pod0-rack0-h0"

    def test_restricted_to_client_pod_when_colocated(self, env):
        """§6.2: 'if there exists a pod where both the client and any
        replica are co-located, the replica search space is restricted to
        only that pod' — even when the out-of-pod replica is idle."""
        topo, loop, net, table, monitor = env
        # make the in-pod replica busy
        busy = "pod0-rack1-h0"
        net.start_flow("bg", table.paths(busy, "pod0-rack1-h1")[0], GB)
        monitor.sample_now()
        selector = SinbadRSelector(topo, monitor, random.Random(1))
        chosen = selector.select_replica(
            "pod0-rack0-h0", [busy, "pod1-rack0-h0"]
        )
        assert chosen == busy

    def test_avoids_loaded_replica(self, env):
        topo, loop, net, table, monitor = env
        busy = "pod0-rack1-h0"
        idle = "pod0-rack2-h0"
        net.start_flow("bg", table.paths(busy, "pod0-rack1-h1")[0], GB)
        monitor.sample_now()
        selector = SinbadRSelector(topo, monitor, random.Random(1))
        chosen = selector.select_replica("pod0-rack0-h0", [busy, idle])
        assert chosen == idle

    def test_view_is_stale_between_samples(self, env):
        """The flow starts *after* the sample: Sinbad-R cannot see it."""
        topo, loop, net, table, monitor = env
        monitor.sample_now()
        busy = "pod0-rack1-h0"
        idle = "pod0-rack2-h0"
        net.start_flow("bg", table.paths(busy, "pod0-rack1-h1")[0], GB)
        selector = SinbadRSelector(topo, monitor, random.Random(3))
        picks = {
            selector.select_replica("pod0-rack0-h0", [busy, idle])
            for _ in range(20)
        }
        assert busy in picks  # stale view still considers the busy host idle

    def test_same_rack_replica_ignores_rack_uplink_load(self, env):
        topo, loop, net, table, monitor = env
        # heavy traffic from rack0 hosts to other racks loads rack0 uplinks,
        # but a same-rack read does not ascend them
        net.start_flow("bg1", table.paths("pod0-rack0-h2", "pod0-rack1-h0")[0], GB)
        net.start_flow("bg2", table.paths("pod0-rack0-h3", "pod0-rack2-h0")[0], GB)
        monitor.sample_now()
        selector = SinbadRSelector(topo, monitor, random.Random(1))
        same_rack = "pod0-rack0-h1"  # idle edge link
        chosen = selector.select_replica("pod0-rack0-h0", [same_rack, "pod0-rack3-h0"])
        assert chosen == same_rack


class TestMonitor:
    def test_sampling_tracks_utilization(self, env):
        topo, loop, net, table, monitor = env
        net.start_flow("f", table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0], GB)
        monitor.sample_now()
        assert monitor.host_uplink_fraction("pod0-rack0-h0") == pytest.approx(1.0)
        assert monitor.host_uplink_fraction("pod0-rack0-h1") == 0.0

    def test_rack_uplink_fraction_sums_members(self, env):
        topo, loop, net, table, monitor = env
        # route one flow through each aggregation switch so neither flow
        # contends: each runs at the full 1 Gbps edge rate
        net.start_flow("f1", table.paths("pod0-rack0-h0", "pod0-rack1-h0")[0], GB)
        net.start_flow("f2", table.paths("pod0-rack0-h1", "pod0-rack1-h1")[1], GB)
        monitor.sample_now()
        # 2 Gbps of member tx over 2x1 Gbps uplinks
        assert monitor.rack_uplink_fraction("pod0-rack0") == pytest.approx(1.0)

    def test_periodic_sampling(self, env):
        topo, loop, net, table, monitor = env
        monitor.start()
        loop.run(until=3.5)
        monitor.stop()
        assert monitor.samples_taken == 4  # t=0,1,2,3

    def test_invalid_interval(self, env):
        topo, loop, net, *_ = env
        with pytest.raises(ValueError):
            EndHostMonitor(loop, net, sample_interval=0)
