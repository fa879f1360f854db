"""``RoutingTable.paths`` against networkx, path for path and in order.

The runtime enumerates equal-cost shortest paths with its own BFS over
``Topology.adjacency``; networkx survives only here, as the oracle.  The
*order* of the returned list is part of the contract (Eq. 2 tie-breaks
and the index ``EcmpHasher`` picks depend on it): lexicographic on the
node-name sequence, i.e. ``sorted(nx.all_shortest_paths(...))``.
"""

import itertools
import random
import tracemalloc

import networkx as nx
import pytest

from repro.net import LinkDirection, RoutingTable, Tier, Topology, leaf_spine, three_tier
from repro.net.topology import Host, SwitchNode
from tests.core.conftest import build_fig2_topology


def oracle_link_ids(graph, src, dst):
    """The parent implementation: sorted networkx node paths as link ids."""
    return [
        tuple(graph.edges[a, b]["link_id"] for a, b in zip(nodes, nodes[1:]))
        for nodes in sorted(nx.all_shortest_paths(graph, src, dst))
    ]


def assert_matches_oracle(topo, pairs):
    graph = topo.to_networkx()
    table = RoutingTable(topo)
    checked = 0
    for src, dst in pairs:
        got = table.paths(src, dst)
        assert [p.link_ids for p in got] == oracle_link_ids(graph, src, dst), (src, dst)
        assert all((p.src, p.dst) == (src, dst) for p in got)
        checked += 1
    return checked


def all_pairs(topo):
    return itertools.permutations(sorted(topo.hosts), 2)


@pytest.mark.parametrize("oversubscription", [8.0, 16.0, 24.0])
def test_every_pair_on_the_64_host_testbed(oversubscription):
    topo = three_tier(oversubscription=oversubscription)
    assert assert_matches_oracle(topo, all_pairs(topo)) == 64 * 63


def test_sampled_pairs_at_1024_hosts_cover_every_locality_class():
    topo = three_tier(pods=16, racks_per_pod=16, hosts_per_rack=4)
    hosts = sorted(topo.hosts)
    rng = random.Random(20240)
    by_distance = {2: [], 4: [], 6: []}
    for _ in range(520):  # uniform pairs would be ~94 % cross-pod
        src = rng.choice(hosts)
        here = topo.hosts[src]
        same_rack = [h.host_id for h in topo.hosts_in_rack(here.rack) if h.host_id != src]
        same_pod = [h.host_id for h in topo.hosts_in_pod(here.pod) if h.rack != here.rack]
        other_pod = [h for h in hosts if topo.hosts[h].pod != here.pod]
        for distance, peers in ((2, same_rack), (4, same_pod), (6, other_pod)):
            pair = (src, rng.choice(peers))
            by_distance[distance].append(pair if rng.random() < 0.5 else pair[::-1])
    pairs = [pair for distance in (2, 4, 6) for pair in by_distance[distance]]
    assert assert_matches_oracle(topo, pairs) == 1560
    table = RoutingTable(topo)
    for distance, expected_paths in ((2, 1), (4, 2), (6, 8)):
        for src, dst in by_distance[distance][:20]:
            found = table.paths(src, dst)
            assert len(found) == expected_paths
            assert {len(p.link_ids) for p in found} == {distance}


def test_every_pair_on_leaf_spine():
    topo = leaf_spine()
    assert assert_matches_oracle(topo, all_pairs(topo)) == 64 * 63


def test_fig2_worked_example_graph():
    topo = build_fig2_topology()
    assert assert_matches_oracle(topo, all_pairs(topo)) == 2
    assert [p.link_ids for p in RoutingTable(topo).paths("S", "R")] == [
        ("S->E1", "E1->A1", "A1->E2", "E2->R"),
        ("S->E1", "E1->A2", "A2->E2", "E2->R"),
    ]


def test_irregular_graph_with_unequal_detours():
    """A ring of five switches plus a chord: shortest sets differ per pair."""
    topo = Topology()
    ring = [f"s{i}" for i in range(5)]
    for switch_id in ring:
        topo.add_switch(SwitchNode(switch_id, Tier.EDGE, pod="p"))
    for a, b in zip(ring, ring[1:] + ring[:1]):
        topo.add_cable(a, b, 1e9)
    topo.add_cable("s0", "s2", 1e9)
    for i, switch_id in enumerate(ring):
        topo.add_host(Host(f"h{i}", rack=switch_id, pod="p"))
        topo.add_cable(f"h{i}", switch_id, 1e9, LinkDirection.UP)
    assert assert_matches_oracle(topo, all_pairs(topo)) == 20
    # h1 -> h3 only has s1-s2-s3; h0 -> h3 ties s0-s2-s3 (the chord) with
    # s0-s4-s3.
    assert len(RoutingTable(topo).paths("h1", "h3")) == 1
    assert len(RoutingTable(topo).paths("h0", "h3")) == 2


def test_disconnected_pair_raises():
    topo = Topology()
    for switch_id in ("left", "right"):
        topo.add_switch(SwitchNode(switch_id, Tier.EDGE, pod="p"))
    topo.add_host(Host("a", rack="left", pod="p"))
    topo.add_host(Host("b", rack="right", pod="p"))
    topo.add_cable("a", "left", 1e9, LinkDirection.UP)
    topo.add_cable("b", "right", 1e9, LinkDirection.UP)
    table = RoutingTable(topo)
    with pytest.raises(ValueError, match="disconnected"):
        table.paths("a", "b")
    with pytest.raises(nx.NetworkXNoPath):
        list(nx.all_shortest_paths(topo.to_networkx(), "a", "b"))


def test_no_path_transits_a_third_host():
    """A dual-homed host is an endpoint, never a forwarder.

    ``m`` hangs off both edge switches, so the graph's shortest a -> b
    walk is a-e1-m-e2-b (4 links).  The 5-link route over the aggregation
    switches is the only one a network can actually carry.
    """
    topo = Topology()
    for switch_id, tier in (("e1", Tier.EDGE), ("e2", Tier.EDGE),
                            ("g1", Tier.AGGREGATION), ("g2", Tier.AGGREGATION)):
        topo.add_switch(SwitchNode(switch_id, tier, pod="p"))
    topo.add_cable("e1", "g1", 1e9, LinkDirection.UP)
    topo.add_cable("g1", "g2", 1e9)
    topo.add_cable("g2", "e2", 1e9, LinkDirection.DOWN)
    for host_id, rack in (("a", "e1"), ("b", "e2"), ("m", "e1")):
        topo.add_host(Host(host_id, rack=rack, pod="p"))
        topo.add_cable(host_id, rack, 1e9, LinkDirection.UP)
    topo.add_cable("m", "e2", 1e9, LinkDirection.UP)
    table = RoutingTable(topo)

    assert [p.link_ids for p in table.paths("a", "b")] == [
        ("a->e1", "e1->g1", "g1->g2", "g2->e2", "e2->b"),
    ]
    # networkx, which knows nothing about hosts, takes the shortcut.
    assert sorted(nx.all_shortest_paths(topo.to_networkx(), "a", "b")) == [
        ["a", "e1", "m", "e2", "b"],
    ]
    # The dual-homed host itself uses whichever uplink is nearer.
    assert [p.link_ids for p in table.paths("m", "b")] == [("m->e2", "e2->b")]
    assert [p.link_ids for p in table.paths("b", "m")] == [("b->e2", "e2->m")]
    assert [p.link_ids for p in table.paths("m", "a")] == [("m->e1", "e1->a")]
    # A back-to-back cable is one hop, shorter than anything switched; it
    # does not make either end a forwarder for the other's traffic.
    topo.add_cable("a", "m", 1e9)
    table = RoutingTable(topo)
    assert [p.link_ids for p in table.paths("a", "m")] == [("a->m",)]
    assert [p.link_ids for p in table.paths("m", "a")] == [("m->a",)]
    assert [len(p.link_ids) for p in table.paths("a", "b")] == [5]
    for src, dst in all_pairs(topo):
        for path in table.paths(src, dst):
            interior = {link_id.split("->")[1] for link_id in path.link_ids[:-1]}
            assert interior <= set(topo.switches), (src, dst, path.link_ids)


def test_prefix_named_switches_and_a_multi_homed_host():
    """Routes come out in node-name order when names prefix each other.

    ``a`` hangs off both ``s1`` and ``s10``, so its routes differ already
    at the first link; ``g1``/``g10``/``g1x`` split them again one tier
    up.  ``"u->s1"`` sorts before ``"u->s10"`` exactly as ``"s1"`` sorts
    before ``"s10"``, so ordering link ids orders node names.
    """
    topo = Topology()
    for switch_id in ("s1", "s10", "s1x"):
        topo.add_switch(SwitchNode(switch_id, Tier.EDGE, pod="p"))
    for switch_id in ("g1x", "g10", "g1"):
        topo.add_switch(SwitchNode(switch_id, Tier.AGGREGATION, pod="p"))
        for edge in ("s1x", "s10", "s1"):
            topo.add_cable(edge, switch_id, 1e9, LinkDirection.UP)
    for host_id, rack in (("a", "s10"), ("b", "s1x"), ("c", "s1x"), ("d", "s1")):
        topo.add_host(Host(host_id, rack=rack, pod="p"))
        topo.add_cable(host_id, rack, 1e9, LinkDirection.UP)
    topo.add_cable("a", "s1", 1e9, LinkDirection.UP)
    assert assert_matches_oracle(topo, all_pairs(topo)) == 12
    assert [p.link_ids[:2] for p in RoutingTable(topo).paths("a", "b")] == [
        ("a->s1", "s1->g1"), ("a->s1", "s1->g10"), ("a->s1", "s1->g1x"),
        ("a->s10", "s10->g1"), ("a->s10", "s10->g10"), ("a->s10", "s10->g1x"),
    ]
    assert [p.link_ids[2:] for p in RoutingTable(topo).paths("b", "a")] == [
        ("g1->s1", "s1->a"), ("g1->s10", "s10->a"),
        ("g10->s1", "s1->a"), ("g10->s10", "s10->a"),
        ("g1x->s1", "s1->a"), ("g1x->s10", "s10->a"),
    ]


def _switch_graph(edges, hosts):
    """A hand-built fabric: switch cables ``edges``, ``hosts`` -> their switches."""
    topo = Topology()
    for switch_id in sorted({s for edge in edges for s in edge}):
        topo.add_switch(SwitchNode(switch_id, Tier.EDGE, pod="p"))
    for a, b in edges:
        topo.add_cable(a, b, 1e9)
    for host_id, racks in hosts.items():
        topo.add_host(Host(host_id, rack=racks[0], pod="p"))
        for rack in racks:
            topo.add_cable(host_id, rack, 1e9, LinkDirection.UP)
    return topo


def test_odd_switch_distance_meets_mid_way():
    """Three switch links between ``a`` and ``d``: the two frontiers meet
    one level short of either end, and every branch is kept."""
    topo = _switch_graph(
        [("a", "b1"), ("a", "b2"), ("b1", "c1"), ("b2", "c1"), ("b2", "c2"),
         ("c1", "d"), ("c2", "d"), ("b1", "x"), ("x", "y")],
        {"h": ["a"], "g": ["d"], "k": ["y"]},
    )
    assert assert_matches_oracle(topo, all_pairs(topo)) == 6
    assert [p.link_ids[1:-1] for p in RoutingTable(topo).paths("h", "g")] == [
        ("a->b1", "b1->c1", "c1->d"),
        ("a->b2", "b2->c1", "c1->d"),
        ("a->b2", "b2->c2", "c2->d"),
    ]
    assert [p.link_ids[1:-1] for p in RoutingTable(topo).paths("g", "h")] == [
        ("d->c1", "c1->b1", "b1->a"),
        ("d->c1", "c1->b2", "b2->a"),
        ("d->c2", "c2->b2", "b2->a"),
    ]


def test_dual_homed_destination_at_unequal_distances():
    """``m`` hangs off ``e1`` (one hop from ``a``'s switch) and ``e2`` (two
    hops): routes into ``m`` use only the nearer delivering switch."""
    topo = _switch_graph(
        [("sa", "e1"), ("sa", "x"), ("x", "e2"), ("e1", "z"), ("z", "e2")],
        {"a": ["sa"], "b": ["e2"], "m": ["e1", "e2"]},
    )
    assert assert_matches_oracle(topo, all_pairs(topo)) == 6
    table = RoutingTable(topo)
    assert [p.link_ids for p in table.paths("a", "m")] == [("a->sa", "sa->e1", "e1->m")]
    assert [p.link_ids for p in table.paths("m", "a")] == [("m->e1", "e1->sa", "sa->a")]
    assert [p.link_ids for p in table.paths("b", "m")] == [("b->e2", "e2->m")]


def test_retained_state_grows_with_the_pairs_asked_not_the_fabric():
    """500 cross-pod pairs at 1024 hosts keep well under 4 MiB.  A table
    holding a breadth-first DAG of all 290 switches per source switch
    would keep about 10 MiB here."""
    topo = three_tier(pods=16, racks_per_pod=16, hosts_per_rack=4)
    hosts = sorted(topo.hosts)
    rng = random.Random(500)
    pairs = []
    while len(pairs) < 500:
        src, dst = rng.sample(hosts, 2)
        if topo.hosts[src].pod != topo.hosts[dst].pod:
            pairs.append((src, dst))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = RoutingTable(topo)
        for src, dst in pairs:
            assert len(table.paths(src, dst)) == 8
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4 * 2**20, retained
