"""Dedicated coverage for ``Controller.verify_tables_consistent``.

The checker audits the control plane against the data plane: every route
the controller holds must belong to a flow the network still carries,
over the same links as that flow's path.
"""

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


def test_empty_controller_is_consistent(env):
    _, _, _, ctl = env
    assert ctl.verify_tables_consistent() == []


def test_installed_paths_are_consistent(env):
    _, net, table, ctl = env
    for i, dst in enumerate(["pod1-rack0-h0", "pod2-rack3-h1", "pod0-rack0-h1"]):
        ctl.start_transfer(f"f{i}", table.paths("pod0-rack0-h0", dst)[0], GB)
    assert ctl.verify_tables_consistent() == []


def test_stale_entry_is_reported(env):
    _, net, table, ctl = env
    ctl.start_transfer("f", table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0], GB)
    net.cancel_flow("f")  # behind the controller's back: no callback runs

    problems = ctl.verify_tables_consistent()
    assert len(problems) == 1
    assert "f" in problems[0] and "stale" in problems[0]


def test_route_off_the_flows_path_differs(env):
    _, net, table, ctl = env
    paths = table.paths("pod0-rack0-h0", "pod0-rack1-h0")
    ctl.start_transfer("f", paths[0], GB)
    net.reroute_flow("f", paths[1])  # behind the controller's back

    problems = ctl.verify_tables_consistent()
    assert len(problems) == 1
    assert "f" in problems[0] and "differs" in problems[0]


def test_uninstall_restores_consistency(env):
    """A completed transfer's route goes with it; the others stay."""
    loop, net, table, ctl = env
    ctl.start_transfer("short", table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0], GB)
    ctl.start_transfer("long", table.paths("pod1-rack0-h0", "pod2-rack0-h0")[0], 4 * GB)
    loop.run(until=10.0)
    assert sorted(net.active_flows) == ["long"]
    assert ctl.verify_tables_consistent() == []
    net.cancel_flow("long")  # the one route left is now the only stale one
    problems = ctl.verify_tables_consistent()
    assert len(problems) == 1 and "long" in problems[0]


def test_consistent_after_link_failure_cleanup(env):
    """A link failure aborts flows through the controller; the audit must
    come back clean afterwards (no dangling routes)."""
    loop, net, table, ctl = env

    aborted = []
    ctl.start_transfer(
        "f",
        table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0],
        100 * GB,
        on_abort=lambda flow, exc: aborted.append(flow.flow_id),
    )
    loop.run(until=0.01)
    path = table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0]
    ctl.fail_link(path.link_ids[1])
    loop.run(until=0.02)

    assert aborted == ["f"]
    assert ctl.verify_tables_consistent() == []


def test_refused_duplicate_keeps_the_first_route(env):
    loop, net, table, ctl = env
    paths = table.paths("pod0-rack0-h0", "pod0-rack1-h0")
    done = []
    ctl.start_transfer("f", paths[0], GB, on_complete=lambda f: done.append(f.flow_id))
    with pytest.raises(ValueError):
        ctl.start_transfer("f", paths[1], GB)
    assert ctl.verify_tables_consistent() == []
    # The first transfer still owns its route: it reroutes and completes.
    ctl.reroute_transfer("f", paths[1])
    assert ctl.verify_tables_consistent() == []
    loop.run()
    assert done == ["f"]
    assert ctl.verify_tables_consistent() == []
