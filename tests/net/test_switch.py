"""Unit tests for switch stats views."""

import random

import pytest

from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.net.routing import Path
from repro.net.switch import FlowStat, build_switches
from repro.sim import EventLoop

GB = 8e9


@pytest.fixture()
def env():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    switches = build_switches(net)
    return loop, net, table, switches


def test_every_switch_materialized(env):
    _, net, _, switches = env
    assert sorted(switches) == sorted(net.topology.switches)


def test_attached_hosts_only_for_edge(env):
    _, _, _, switches = env
    assert switches["pod0-rack0"].attached_hosts() == [
        "pod0-rack0-h0",
        "pod0-rack0-h1",
        "pod0-rack0-h2",
        "pod0-rack0-h3",
    ]
    assert switches["core0"].attached_hosts() == []
    assert switches["pod0-agg0"].attached_hosts() == []


def test_flow_stats_only_for_locally_originated_flows(env):
    """Per §4: a switch reports flows whose source host hangs off it."""
    loop, net, table, switches = env
    # flow A originates in rack0, flow B in rack1; both terminate elsewhere
    net.start_flow("a", table.paths("pod0-rack0-h0", "pod0-rack1-h0")[0], GB)
    net.start_flow("b", table.paths("pod0-rack1-h1", "pod0-rack0-h2")[0], GB)
    rack0_flows = [s.flow_id for s in switches["pod0-rack0"].flow_stats()]
    rack1_flows = [s.flow_id for s in switches["pod0-rack1"].flow_stats()]
    assert rack0_flows == ["a"]
    assert rack1_flows == ["b"]


def test_flow_stats_expose_remaining_size(env):
    loop, net, table, switches = env
    net.start_flow("a", table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0], GB)
    loop.run(until=2.0)
    (stat,) = switches["pod0-rack0"].flow_stats()
    assert stat.src == "pod0-rack0-h0"
    assert stat.dst == "pod0-rack0-h1"
    assert stat.bytes_sent == pytest.approx(2.5e8)
    assert stat.remaining_bits == pytest.approx(GB - 2e9)
    assert stat.size_bits == GB


def test_completed_flows_disappear_from_stats(env):
    loop, net, table, switches = env
    net.start_flow("a", table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0], GB)
    loop.run()
    assert switches["pod0-rack0"].flow_stats() == []


# --- flow_stats against its definition, at scale ------------------------


def reference_flow_stats(switch, view):
    """§4's wildcard query as a scan of every active flow."""
    local = set(switch.attached_hosts())
    flows = view.active_flows
    return [_stat_of(flows[fid]) for fid in sorted(flows) if flows[fid].src in local]


def _stat_of(flow):
    return FlowStat(
        flow_id=flow.flow_id,
        src=flow.src,
        dst=flow.dst,
        bytes_sent=flow.bytes_sent,
        size_bits=flow.size_bits,
        remaining_bits=flow.remaining_bits,
    )


@pytest.fixture(scope="module")
def scale_out():
    return three_tier(pods=16, racks_per_pod=16, hosts_per_rack=4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flow_stats_equals_a_full_scan_at_1024_hosts(scale_out, seed):
    loop = EventLoop()
    net = FlowNetwork(loop, scale_out)
    table = RoutingTable(scale_out)
    rng = random.Random(seed)
    hosts = sorted(scale_out.hosts)
    for i in range(400):
        src, dst = rng.sample(hosts, 2)
        if i % 3 == 0:  # keep a third of the traffic inside the source rack
            near = scale_out.hosts_in_rack(scale_out.hosts[src].rack)
            dst = rng.choice([h.host_id for h in near if h.host_id != src])
        net.start_flow(f"f{i:04d}", rng.choice(table.paths(src, dst)), rng.choice([1, 4, 16]) * GB)
    # A detour that transits pod0-rack1 without starting or ending there.
    net.start_flow("transit", Path("pod0-rack0-h0", "pod0-rack2-h0", (
        "pod0-rack0-h0->pod0-rack0", "pod0-rack0->pod0-agg0", "pod0-agg0->pod0-rack1",
        "pod0-rack1->pod0-agg1", "pod0-agg1->pod0-rack2", "pod0-rack2->pod0-rack2-h0",
    )), GB)
    loop.run(until=1.5)  # some flows finish, the rest have moved bytes

    switches = build_switches(net)
    sources = {flow.src for flow in net.active_flows.values()}
    sinks_only = [
        rack for rack in scale_out.racks()
        if not sources & set(switches[rack].attached_hosts())
        and any(scale_out.hosts[f.dst].rack == rack for f in net.active_flows.values())
    ]
    assert sinks_only, "the sample should leave racks that only terminate flows"
    for rack in sinks_only:
        assert switches[rack].flow_stats() == []
    reported = []
    for switch_id, switch in switches.items():
        got = switch.flow_stats()
        assert got == reference_flow_stats(switch, net), switch_id
        reported += [stat.flow_id for stat in got]
    assert sorted(reported) == sorted(net.active_flows)  # each flow at one switch


def test_a_rack_that_emptied_answers_nothing(env):
    loop, net, table, switches = env
    rack = switches["pod0-rack0"]
    net.start_flow("a", table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0], GB)
    net.start_flow("b", table.paths("pod0-rack0-h3", "pod0-rack0-h1")[0], GB)
    assert [s.flow_id for s in rack.flow_stats()] == ["a", "b"]
    loop.run()
    assert not net.active_flows
    assert rack.flow_stats() == [] == reference_flow_stats(rack, net)


def test_every_query_reads_counters_at_its_own_instant(env, monkeypatch):
    """Each query, busy rack or empty, calls ``snapshot_progress`` once."""
    loop, net, table, switches = env
    calls = []
    real = net.snapshot_progress

    def counted():
        calls.append(loop.now)
        real()

    monkeypatch.setattr(net, "snapshot_progress", counted)
    net.start_flow("a", table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0], GB)
    loop.run(until=1.0)
    (stat,) = switches["pod0-rack0"].flow_stats()
    assert stat.bytes_sent == pytest.approx(1.25e8)  # advanced to t=1
    assert switches["pod3-rack3"].flow_stats() == []
    assert switches["core0"].flow_stats() == []
    assert calls == [1.0, 1.0, 1.0]


def test_a_poll_queries_each_edge_switch_once_in_order(monkeypatch):
    """One ``Switch.flow_stats`` per edge switch per tick, busy or not."""
    from repro.core.flow_state import FlowStateTable, TrackedFlow
    from repro.core.stats import FlowStatsCollector
    from repro.net.switch import Switch
    from repro.sdn import Controller

    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    ctl = Controller(net)
    state = FlowStateTable()
    collector = FlowStatsCollector(loop, ctl, state, poll_interval=1.0)
    queried = []
    real = Switch.flow_stats

    def recorded(switch):
        queried.append((loop.now, switch.switch_id))
        return real(switch)

    monkeypatch.setattr(Switch, "flow_stats", recorded)
    for i, (src, dst) in enumerate([("pod0-rack0-h0", "pod1-rack2-h1"),
                                    ("pod2-rack1-h3", "pod2-rack1-h0")]):
        path = table.paths(src, dst)[0]
        state.add(TrackedFlow(flow_id=f"f{i}", path_link_ids=path.link_ids,
                              size_bits=4 * GB, remaining_bits=4 * GB, bw_bps=1e9))
        ctl.start_transfer(f"f{i}", path, 4 * GB)
    loop.run(until=3.5)
    edges = list(ctl.edge_switch_ids())
    assert len(edges) == 16
    assert collector.polls_completed == 3
    assert queried == [(float(t), sid) for t in (1, 2, 3) for sid in edges]
