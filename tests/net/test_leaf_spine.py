"""Tests for the leaf-spine topology and Mayflower's generality on it."""

import pytest

from repro.core import Flowserver
from repro.net import FlowNetwork, RoutingTable, Tier, leaf_spine
from repro.sdn import Controller
from repro.sim import EventLoop

MB = 8e6
GB = 8e9


class TestStructure:
    def test_default_shape(self):
        topo = leaf_spine()
        assert len(topo.hosts) == 64
        assert len(topo.switches_in_tier(Tier.EDGE)) == 8
        assert len(topo.switches_in_tier(Tier.CORE)) == 4
        assert len(topo.switches_in_tier(Tier.AGGREGATION)) == 0

    def test_every_leaf_connects_to_every_spine(self):
        topo = leaf_spine(leaves=3, spines=2, hosts_per_leaf=2)
        for leaf_index in range(3):
            neighbors = set(topo.neighbors(f"leaf{leaf_index}"))
            assert {"spine0", "spine1"} <= neighbors

    def test_oversubscription_ratio(self):
        topo = leaf_spine(oversubscription=2.0)
        host_bps = 8 * 1e9  # 8 hosts per leaf at 1 Gbps
        uplinks = sum(
            topo.links[lid].capacity_bps
            for lid in topo.adjacency["leaf0"]
            if topo.links[lid].dst.startswith("spine")
        )
        assert host_bps / uplinks == pytest.approx(2.0)

    def test_nonblocking_fabric(self):
        topo = leaf_spine(oversubscription=1.0)
        uplinks = sum(
            topo.links[lid].capacity_bps
            for lid in topo.adjacency["leaf0"]
            if topo.links[lid].dst.startswith("spine")
        )
        assert uplinks == pytest.approx(8e9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            leaf_spine(leaves=0)
        with pytest.raises(ValueError):
            leaf_spine(oversubscription=0.5)


class TestRouting:
    def test_cross_leaf_paths_one_per_spine(self):
        topo = leaf_spine(leaves=4, spines=4, hosts_per_leaf=2)
        table = RoutingTable(topo)
        paths = table.paths("leaf0-h0", "leaf1-h0")
        assert len(paths) == 4  # one via each spine
        assert all(len(p.link_ids) == 4 for p in paths)

    def test_same_leaf_single_path(self):
        topo = leaf_spine()
        table = RoutingTable(topo)
        paths = table.paths("leaf0-h0", "leaf0-h1")
        assert len(paths) == 1
        assert len(paths[0].link_ids) == 2


class TestMayflowerOnLeafSpine:
    def test_flowserver_selects_and_avoids_congestion(self):
        """Topology-agnostic co-design: on a leaf-spine fabric the
        Flowserver still routes around a loaded replica."""
        topo = leaf_spine(leaves=4, spines=2, hosts_per_leaf=4)
        loop = EventLoop()
        net = FlowNetwork(loop, topo)
        routing = RoutingTable(topo)
        controller = Controller(net)
        flowserver = Flowserver(controller, routing)

        busy, idle = "leaf1-h0", "leaf2-h0"
        for dst in ("leaf3-h0", "leaf3-h1", "leaf3-h2"):
            result = flowserver.select(dst, [busy], 10 * GB)
            for a in result.assignments:
                controller.start_transfer(a.flow_id, a.path, a.size_bits)
        result = flowserver.select("leaf0-h0", [busy, idle], 256 * MB)
        assert result.assignments[0].replica == idle
        flowserver.close()

    def test_read_completes_at_line_rate(self):
        topo = leaf_spine(oversubscription=1.0)
        loop = EventLoop()
        net = FlowNetwork(loop, topo)
        routing = RoutingTable(topo)
        controller = Controller(net)
        flowserver = Flowserver(controller, routing)
        done = []
        result = flowserver.select("leaf0-h0", ["leaf1-h0"], 1 * GB)
        for a in result.assignments:
            controller.start_transfer(
                a.flow_id, a.path, a.size_bits,
                on_complete=lambda f: done.append(loop.now),
            )
        loop.run()
        flowserver.close()
        assert done == [pytest.approx(8.0)]  # non-blocking: full 1 Gbps
