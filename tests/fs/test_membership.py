"""Tests for heartbeat-driven failure detection and re-replication."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.fs.membership import HeartbeatSender, MembershipTracker
from repro.rpc import RpcFabric
from repro.sim import EventLoop

MB = 1024 * 1024


class TestMembershipTracker:
    def test_all_hosts_alive_initially(self):
        loop = EventLoop()
        tracker = MembershipTracker(loop, ["a", "b"])
        assert tracker.dead_hosts(timeout=10.0) == []
        assert tracker.alive_hosts(timeout=10.0) == ["a", "b"]

    def test_silence_marks_dead(self):
        loop = EventLoop()
        tracker = MembershipTracker(loop, ["a", "b"])
        loop.call_at(15.0, tracker.heartbeat, "a")
        loop.run(until=20.0)
        # a beat 5 s ago (alive); b has been silent for 20 s (dead)
        assert tracker.dead_hosts(timeout=10.0) == ["b"]
        assert tracker.alive_hosts(timeout=10.0) == ["a"]

    def test_heartbeat_revives(self):
        loop = EventLoop()
        tracker = MembershipTracker(loop, ["a"])
        loop.run(until=30.0)
        assert tracker.dead_hosts(timeout=10.0) == ["a"]
        tracker.heartbeat("a")
        assert tracker.dead_hosts(timeout=10.0) == []


class TestHeartbeatSender:
    def test_beats_reach_tracker(self):
        loop = EventLoop()
        fabric = RpcFabric(loop)
        tracker = MembershipTracker(loop, ["h1"])
        fabric.register("ns", "membership", tracker)
        sender = HeartbeatSender(loop, fabric, "h1", "ns", interval=2.0)
        loop.run(until=7.0)
        sender.stop()
        assert tracker.heartbeats_received == 4  # t=0,2,4,6

    def test_unreachable_tracker_does_not_crash(self):
        loop = EventLoop()
        fabric = RpcFabric(loop)
        sender = HeartbeatSender(loop, fabric, "h1", "nowhere", interval=2.0)
        loop.run(until=5.0)
        sender.stop()

    def test_invalid_interval(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            HeartbeatSender(loop, RpcFabric(loop), "h1", "ns", interval=0)


def build_ha_cluster():
    return Cluster(
        ClusterConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=2,
            scheme="mayflower",
            store_payload=True,
            seed=17,
            enable_replica_manager=True,
            heartbeat_interval=2.0,
            heartbeat_timeout=5.0,
            repair_interval=3.0,
        )
    )


class TestReplicaManagerEndToEnd:
    def test_dead_dataserver_triggers_rereplication(self):
        cluster = build_ha_cluster()
        client = cluster.client("pod1-rack1-h1")
        payload = b"replicate-me" * 40000

        def setup():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            yield from client.append("f", len(payload), payload)
            return meta

        proc = cluster.spawn(setup())
        cluster.loop.run(until=1.0)
        assert proc.exception is None
        meta = proc.result

        victim = meta.replicas[1]  # kill a secondary
        cluster.fabric.set_down(victim)
        cluster.loop.run(until=30.0)

        updated = cluster.nameserver.lookup("f")
        assert victim not in updated["replicas"]
        assert len(updated["replicas"]) == 3
        replacement = [r for r in updated["replicas"] if r not in meta.replicas]
        assert len(replacement) == 1
        # the replacement holds the full data
        ds = cluster.dataservers[replacement[0]]
        assert ds.file_size(updated["file_id"]) == len(payload)
        assert bytes(ds._files[updated["file_id"]].payload) == payload
        assert cluster.replica_manager.repairs_completed == 1
        cluster.shutdown()

    def test_dead_primary_promotes_survivor(self):
        cluster = build_ha_cluster()
        client = cluster.client("pod1-rack1-h1")

        def setup():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            yield from client.append("f", 100, b"p" * 100)
            return meta

        proc = cluster.spawn(setup())
        cluster.loop.run(until=1.0)
        meta = proc.result

        cluster.fabric.set_down(meta.primary)
        cluster.loop.run(until=30.0)

        updated = cluster.nameserver.lookup("f")
        assert updated["replicas"][0] != meta.primary
        assert updated["replicas"][0] in meta.replicas  # a survivor leads
        cluster.shutdown()

    def test_repair_respects_rack_diversity(self):
        cluster = build_ha_cluster()
        client = cluster.client("pod1-rack1-h1")

        def setup():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            yield from client.append("f", 100, b"p" * 100)
            return meta

        proc = cluster.spawn(setup())
        cluster.loop.run(until=1.0)
        meta = proc.result
        cluster.fabric.set_down(meta.replicas[2])
        cluster.loop.run(until=30.0)

        updated = cluster.nameserver.lookup("f")
        topo = cluster.topology
        racks = [topo.hosts[r].rack for r in updated["replicas"]]
        assert len(set(racks)) == 3
        cluster.shutdown()

    def test_healthy_cluster_never_repairs(self):
        cluster = build_ha_cluster()
        client = cluster.client("pod1-rack1-h1")

        def setup():
            yield from client.create("f", chunk_bytes=4 * MB)

        cluster.spawn(setup())
        cluster.loop.run(until=25.0)
        assert cluster.replica_manager.repairs_completed == 0
        assert cluster.membership.heartbeats_received > 0
        cluster.shutdown()

    def test_reads_survive_replica_loss_after_repair(self):
        cluster = build_ha_cluster()
        client = cluster.client("pod1-rack1-h1")
        payload = b"still-readable" * 2000

        def setup():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            yield from client.append("f", len(payload), payload)
            return meta

        proc = cluster.spawn(setup())
        cluster.loop.run(until=1.0)
        meta = proc.result
        cluster.fabric.set_down(meta.replicas[1])
        cluster.loop.run(until=30.0)

        reader = cluster.client("pod0-rack1-h1")

        def read_back():
            fresh = yield from reader.stat("f")
            result = yield from reader.read("f")
            return fresh, result

        proc2 = cluster.spawn(read_back())
        cluster.loop.run(until=40.0)
        assert proc2.exception is None
        _, result = proc2.result
        assert result.data == payload
        cluster.shutdown()
