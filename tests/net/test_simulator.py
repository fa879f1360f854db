"""Unit tests for the fluid flow-level network simulator."""

import pytest

from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sim import EventLoop


@pytest.fixture()
def env():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    return loop, net, table


MB = 8e6  # bits in a megabyte (decimal), keeps arithmetic readable
GB = 8e9


def test_single_flow_full_edge_bandwidth(env):
    loop, net, table = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    done = []
    net.start_flow("f", path, 1 * GB, on_complete=lambda f: done.append(loop.now))
    loop.run()
    # 8e9 bits over 1 Gbps = 8 seconds
    assert done == [pytest.approx(8.0)]


def test_two_flows_same_edge_link_halve(env):
    loop, net, table = env
    p1 = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    p2 = table.paths("pod0-rack0-h0", "pod0-rack0-h2")[0]
    net.start_flow("f1", p1, GB)
    net.start_flow("f2", p2, GB)
    rates = net.ground_truth_rates()
    assert rates["f1"] == pytest.approx(0.5e9)
    assert rates["f2"] == pytest.approx(0.5e9)


def test_rate_increases_when_competitor_finishes(env):
    loop, net, table = env
    p1 = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    p2 = table.paths("pod0-rack0-h0", "pod0-rack0-h2")[0]
    finish = {}
    net.start_flow("short", p1, 0.5 * GB, on_complete=lambda f: finish.setdefault("short", loop.now))
    net.start_flow("long", p2, 1.5 * GB, on_complete=lambda f: finish.setdefault("long", loop.now))
    loop.run()
    # Both at 0.5 Gbps until short finishes at t=8 (0.5GB at 0.5Gbps);
    # long then has 1.5-0.5=1.0 GB left at 1 Gbps -> finishes at t=16.
    assert finish["short"] == pytest.approx(8.0)
    assert finish["long"] == pytest.approx(16.0)


def test_disjoint_flows_do_not_interact(env):
    loop, net, table = env
    p1 = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    p2 = table.paths("pod1-rack0-h0", "pod1-rack0-h1")[0]
    net.start_flow("f1", p1, GB)
    net.start_flow("f2", p2, GB)
    rates = net.ground_truth_rates()
    assert rates["f1"] == pytest.approx(1e9)
    assert rates["f2"] == pytest.approx(1e9)


def test_cross_pod_flow_bottlenecked_by_core_uplink(env):
    loop, net, table = env
    path = table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0]
    net.start_flow("f", path, GB)
    # default 8:1 topology: agg->core uplinks are 500 Mbps
    assert net.ground_truth_rates()["f"] == pytest.approx(0.5e9)


def test_byte_counters_accumulate(env):
    loop, net, table = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    net.start_flow("f", path, GB)
    loop.run(until=4.0)
    flow = net.active_flows["f"]
    net.snapshot_progress()
    # 4 seconds at 1 Gbps = 0.5 GB = 5e8 bytes
    assert flow.bytes_sent == pytest.approx(5e8)
    assert flow.remaining_bits == pytest.approx(4e9)
    loop.run(until=6.0)
    net.snapshot_progress()
    assert flow.bytes_sent == pytest.approx(7.5e8)
    net.snapshot_progress()  # a second read at the same instant moves nothing
    assert flow.bytes_sent == pytest.approx(7.5e8)


def test_flow_complete_callback_receives_flow(env):
    loop, net, table = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    seen = []
    net.start_flow("f", path, MB, on_complete=seen.append)
    loop.run()
    assert len(seen) == 1
    assert seen[0].flow_id == "f"
    assert seen[0].end_time == pytest.approx(8e6 / 1e9)
    assert seen[0].remaining_bits == 0.0


def test_cancel_flow_releases_bandwidth(env):
    loop, net, table = env
    p1 = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    p2 = table.paths("pod0-rack0-h0", "pod0-rack0-h2")[0]
    net.start_flow("f1", p1, GB)
    net.start_flow("f2", p2, GB)
    net.cancel_flow("f1")
    assert "f1" not in net.active_flows
    assert net.ground_truth_rates()["f2"] == pytest.approx(1e9)


def test_cancel_unknown_flow_raises(env):
    loop, net, table = env
    with pytest.raises(KeyError):
        net.cancel_flow("ghost")


def test_duplicate_flow_id_rejected(env):
    loop, net, table = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    net.start_flow("f", path, MB)
    with pytest.raises(ValueError):
        net.start_flow("f", path, MB)


def test_zero_size_flow_rejected(env):
    loop, net, table = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    with pytest.raises(ValueError):
        net.start_flow("f", path, 0)


def test_completion_callback_can_start_new_flow(env):
    loop, net, table = env
    p1 = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    p2 = table.paths("pod0-rack0-h2", "pod0-rack0-h3")[0]
    finish_times = {}

    def chain(flow):
        finish_times["first"] = loop.now
        net.start_flow(
            "second", p2, GB, on_complete=lambda f: finish_times.setdefault("second", loop.now)
        )

    net.start_flow("first", p1, GB, on_complete=chain)
    loop.run()
    assert finish_times["first"] == pytest.approx(8.0)
    assert finish_times["second"] == pytest.approx(16.0)


def test_simultaneous_completions_all_fire(env):
    loop, net, table = env
    done = []
    for i, dst in enumerate(["pod0-rack0-h1", "pod0-rack0-h2", "pod0-rack0-h3"]):
        path = table.paths("pod0-rack0-h0", dst)[0]
        net.start_flow(f"f{i}", path, GB, on_complete=lambda f: done.append(f.flow_id))
    loop.run()
    # three flows share the 1 Gbps source uplink equally, so they all end
    # together at t=24
    assert sorted(done) == ["f0", "f1", "f2"]
    assert loop.now == pytest.approx(24.0)


def test_flows_on_link(env):
    loop, net, table = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    net.start_flow("f", path, GB)
    assert net.topology.links[path.link_ids[0]].flows == {"f"}


def test_link_utilization_ground_truth(env):
    loop, net, table = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    net.start_flow("f", path, GB)
    assert net.link_utilization_bps(path.link_ids[0]) == pytest.approx(1e9)
    assert net.link_utilization_bps("pod1-rack0-h0->pod1-rack0") == 0.0


def test_conservation_of_volume(env):
    """A cross-pod flow delivers exactly its size, and nothing more."""
    loop, net, table = env
    path = table.paths("pod0-rack0-h0", "pod1-rack2-h3")[0]
    delivered = []
    net.start_flow("f", path, GB,
                   on_complete=lambda flow: delivered.append(flow.bytes_sent))
    loop.run()
    assert delivered == [pytest.approx(GB / 8)]


def test_many_random_flows_complete_and_conserve(env):
    """Stress: staggered random flows all complete; per-flow bytes match."""
    import random

    loop, net, table = env
    rng = random.Random(7)
    hosts = sorted(net.topology.hosts)
    completed = {}

    def make(i):
        src, dst = rng.sample(hosts, 2)
        path = rng.choice(table.paths(src, dst))
        size = rng.uniform(10 * MB, 200 * MB)
        net.start_flow(
            f"f{i}", path, size, on_complete=lambda f: completed.setdefault(f.flow_id, f)
        )

    for i in range(30):
        loop.call_at(rng.uniform(0, 5.0), make, i)
    loop.run()
    assert len(completed) == 30
    assert net.completed_flows == 30
    assert not net.active_flows
    for flow in completed.values():
        assert flow.bytes_sent == pytest.approx(flow.size_bits / 8, rel=1e-6)
        assert flow.end_time >= flow.start_time


def test_down_links_tracks_every_up_flag(env):
    """``down_links`` is the set of links whose ``up`` is False after each
    writer, including repeated and overlapping failures."""
    loop, net, table = env
    links = net.topology.links.values()
    uplink = table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0].link_ids[1]
    steps = [
        lambda: net.fail_link(uplink),
        lambda: net.fail_link(uplink),
        lambda: net.fail_node_links("pod0-rack0"),
        lambda: net.restore_link(uplink),
        lambda: net.fail_node_links("pod0-rack0-h1"),
        lambda: net.restore_node_links("pod0-rack0"),
        lambda: net.restore_node_links("pod0-rack0-h1"),
        lambda: net.restore_link(uplink),
    ]
    assert net.down_links == set()
    for step in steps:
        step()
        assert net.down_links == {link.link_id for link in links if not link.up}
    assert net.down_links == set()
