"""Unit tests for topology construction."""

import pytest

from repro.net import Host, LinkDirection, Tier, Topology, three_tier
from repro.net.topology import SwitchNode


class TestGenericTopology:
    def test_add_host_and_switch(self):
        topo = Topology()
        topo.add_switch(SwitchNode("s1", Tier.EDGE))
        topo.add_host(Host("h1", rack="s1", pod="p0"))
        assert "h1" in topo.hosts
        assert "s1" in topo.switches

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_switch(SwitchNode("s1", Tier.EDGE))
        with pytest.raises(ValueError):
            topo.add_host(Host("s1", rack="s1", pod="p0"))

    def test_cable_creates_two_directed_links(self):
        topo = Topology()
        topo.add_switch(SwitchNode("s1", Tier.EDGE))
        topo.add_host(Host("h1", rack="s1", pod="p0"))
        fwd, bwd = topo.add_cable("h1", "s1", 1e9, LinkDirection.UP)
        assert fwd.link_id == "h1->s1"
        assert bwd.link_id == "s1->h1"
        assert fwd.direction == LinkDirection.UP
        assert bwd.direction == LinkDirection.DOWN

    def test_cable_to_unknown_node_rejected(self):
        topo = Topology()
        topo.add_switch(SwitchNode("s1", Tier.EDGE))
        with pytest.raises(ValueError):
            topo.add_cable("s1", "ghost", 1e9)

    def test_link_between(self):
        topo = Topology()
        topo.add_switch(SwitchNode("s1", Tier.EDGE))
        topo.add_host(Host("h1", rack="s1", pod="p0"))
        topo.add_cable("h1", "s1", 1e9)
        assert topo.link_between("h1", "s1").src == "h1"
        with pytest.raises(KeyError):
            topo.link_between("s1", "missing")

    def test_zero_capacity_rejected(self):
        topo = Topology()
        topo.add_switch(SwitchNode("s1", Tier.EDGE))
        topo.add_host(Host("h1", rack="s1", pod="p0"))
        with pytest.raises(ValueError):
            topo.add_cable("h1", "s1", 0)


class TestThreeTier:
    def test_default_matches_paper_testbed(self):
        topo = three_tier()
        assert len(topo.hosts) == 64
        assert len(topo.pods()) == 4
        assert len(topo.racks()) == 16
        assert len(topo.switches_in_tier(Tier.EDGE)) == 16
        assert len(topo.switches_in_tier(Tier.AGGREGATION)) == 8
        assert len(topo.switches_in_tier(Tier.CORE)) == 2

    def test_edge_links_are_1gbps(self):
        topo = three_tier()
        host = sorted(topo.hosts)[0]
        link = topo.link_between(host, topo.edge_switch_of(host))
        assert link.capacity_bps == 1e9

    def test_total_oversubscription_ratio(self):
        """Host capacity into a rack vs that rack's share of core capacity."""
        for ratio in (8.0, 16.0, 24.0):
            topo = three_tier(oversubscription=ratio)
            rack = topo.racks()[0]
            hosts = topo.hosts_in_rack(rack)
            host_bps = sum(
                topo.link_between(h.host_id, rack).capacity_bps for h in hosts
            )
            # rack -> agg uplinks
            rack_up = sum(
                topo.links[lid].capacity_bps
                for lid in topo.adjacency[rack]
                if topo.links[lid].dst in topo.switches
            )
            # agg -> core uplinks for one pod, normalized per rack
            pod = hosts[0].pod
            aggs = [
                s.switch_id
                for s in topo.switches_in_tier(Tier.AGGREGATION)
                if s.pod == pod
            ]
            agg_up = sum(
                topo.links[lid].capacity_bps
                for agg in aggs
                for lid in topo.adjacency[agg]
                if topo.links[lid].dst.startswith("core")
            )
            racks_in_pod = sum(1 for r in topo.racks() if r.startswith(pod))
            core_share = agg_up / racks_in_pod
            assert host_bps / core_share == pytest.approx(ratio)
            # intermediate tier: sqrt split keeps 8:1 at the canonical
            # (2, 4) and scales both tiers for higher ratios
            assert host_bps / rack_up == pytest.approx(max(1.0, (ratio / 2) ** 0.5))

    def test_invalid_oversubscription_rejected(self):
        with pytest.raises(ValueError):
            three_tier(oversubscription=0.5)
        with pytest.raises(ValueError):
            three_tier(oversubscription=8.0, rack_agg_oversubscription=16.0)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            three_tier(pods=0)
        with pytest.raises(ValueError):
            three_tier(cores=0)

    def test_network_distance(self):
        topo = three_tier()
        h = sorted(topo.hosts)
        assert topo.network_distance(h[0], h[0]) == 0
        assert topo.network_distance("pod0-rack0-h0", "pod0-rack0-h1") == 2
        assert topo.network_distance("pod0-rack0-h0", "pod0-rack1-h0") == 4
        assert topo.network_distance("pod0-rack0-h0", "pod1-rack0-h0") == 6

    def test_edge_switch_of(self):
        topo = three_tier()
        assert topo.edge_switch_of("pod2-rack3-h1") == "pod2-rack3"

    def test_hosts_in_rack_and_pod(self):
        topo = three_tier()
        assert len(topo.hosts_in_rack("pod0-rack0")) == 4
        assert len(topo.hosts_in_pod("pod0")) == 16

    def test_custom_shape(self):
        topo = three_tier(pods=2, racks_per_pod=2, hosts_per_rack=2, aggs_per_pod=1, cores=1)
        assert len(topo.hosts) == 8
        assert len(topo.switches_in_tier(Tier.AGGREGATION)) == 2
        assert len(topo.switches_in_tier(Tier.CORE)) == 1

    def test_to_networkx_round_trip(self):
        topo = three_tier(pods=2, racks_per_pod=2, hosts_per_rack=2)
        graph = topo.to_networkx()
        assert graph.number_of_nodes() == len(topo.hosts) + len(topo.switches)
        assert graph.number_of_edges() == len(topo.links)
