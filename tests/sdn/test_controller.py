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


def test_double_install_rejected(env):
    _, _, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    ctl.start_transfer("f", path, GB)
    with pytest.raises(ValueError):
        ctl.start_transfer("f", path, GB)
    assert ctl.transfers_started == 1


def test_start_transfer_runs_and_cleans_up(env):
    loop, net, table, ctl = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    done = []
    ctl.start_transfer("f", path, GB, on_complete=lambda f: done.append(loop.now))
    assert net.active_flows["f"].path is path
    assert ctl.verify_tables_consistent() == []
    loop.run()
    assert done == [pytest.approx(8.0)]
    assert not net.active_flows
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
    net.start_flow("f", path, GB)  # out of band: the controller has no route
    with pytest.raises(ValueError):
        # the network already has the flow, so the start fails and must
        # not leave a route behind
        ctl.start_transfer("f", path, GB)
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
