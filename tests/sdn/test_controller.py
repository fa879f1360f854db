"""Unit tests for the SDN controller."""

import pytest

from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sdn import Controller
from repro.sim import EventLoop

GB = 8e9


@pytest.fixture()
def env():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    controller = Controller(net)
    return loop, net, table, controller


def test_install_path_programs_switches_along_route(env):
    loop, net, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0]
    ctl.install_path("f", path, GB)
    # the path traverses rack0 -> agg -> core -> agg -> rack; every switch
    # hop must have an entry, hosts have none
    switch_hops = [
        net.topology.links[lid].src
        for lid in path.link_ids
        if net.topology.links[lid].src in net.topology.switches
    ]
    assert len(switch_hops) == 5
    for switch_id, link_id in zip(switch_hops, path.link_ids[1:]):
        assert ctl.flow_table(switch_id).lookup("f") == link_id
    assert ctl.verify_tables_consistent() == []


def test_double_install_rejected(env):
    _, _, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    ctl.install_path("f", path, GB)
    with pytest.raises(ValueError):
        ctl.install_path("f", path, GB)


def test_uninstall_clears_entries(env):
    _, _, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0]
    ctl.install_path("f", path, GB)
    ctl.uninstall_path("f")
    for switch_id in ctl.edge_switch_ids():
        assert ctl.flow_table(switch_id).lookup("f") is None
    assert ctl.verify_tables_consistent() == []


def test_uninstall_unknown_flow_is_noop(env):
    _, _, _, ctl = env
    ctl.uninstall_path("ghost")


def test_start_transfer_runs_and_cleans_up(env):
    loop, net, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    done = []
    ctl.start_transfer("f", path, GB, on_complete=lambda f: done.append(loop.now))
    assert ctl.flow_table("pod0-rack0").lookup("f") == path.link_ids[1]
    loop.run()
    assert done == [pytest.approx(8.0)]
    assert ctl.flow_table("pod0-rack0").lookup("f") is None
    assert ctl.verify_tables_consistent() == []


def test_flow_removed_notification(env):
    loop, net, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    removed = []
    ctl.add_flow_removed_listener(removed.append)
    ctl.start_transfer("f", path, GB)
    loop.run()
    assert len(removed) == 1
    assert removed[0].flow_id == "f"
    assert removed[0].src == "pod0-rack0-h0"
    assert removed[0].bytes_sent == pytest.approx(GB / 8)
    assert removed[0].duration == pytest.approx(8.0)


def test_flow_removed_fires_before_on_complete(env):
    loop, net, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    order = []
    ctl.add_flow_removed_listener(lambda msg: order.append("removed"))
    ctl.start_transfer("f", path, GB, on_complete=lambda f: order.append("complete"))
    loop.run()
    assert order == ["removed", "complete"]


def test_duplicate_transfer_leaves_no_stale_rules(env):
    loop, net, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    ctl.start_transfer("f", path, GB)
    ctl.uninstall_path("f")  # simulate out-of-band rule loss
    with pytest.raises(ValueError):
        # network still has the flow, so restart must fail and not leave rules
        ctl.start_transfer("f", path, GB)
    assert ctl.flow_table("pod0-rack0").lookup("f") is None
    assert ctl.verify_tables_consistent() == []


def test_query_flow_stats(env):
    loop, net, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    ctl.start_transfer("f", path, GB)
    loop.run(until=4.0)
    reply = ctl.query_flow_stats("pod0-rack0")
    assert [f.flow_id for f in reply.flows] == ["f"]
    assert ctl.query_flow_stats("pod1-rack0").flows == ()


def test_edge_switch_ids(env):
    _, _, _, ctl = env
    ids = ctl.edge_switch_ids()
    assert len(ids) == 16
    assert all("rack" in sid for sid in ids)


def test_path_health_tracks_switch_failures(env):
    _, net, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0]
    assert ctl.path_is_up(path)

    agg = net.topology.links[path.link_ids[1]].dst
    ctl.fail_switch(agg)
    assert not ctl.path_is_up(path)

    # Links back up while the switch is still down: only the switch scan
    # can reject the path now.
    for link_id in path.link_ids:
        link = net.topology.links[link_id]
        if agg in (link.src, link.dst):
            ctl.restore_link(link_id)
    assert net.path_is_up(path)
    assert not ctl.path_is_up(path)

    ctl.recover_switch(agg)
    assert ctl.path_is_up(path)
