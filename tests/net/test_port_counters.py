"""Specification of the lazily charged link (port) byte counters.

The simulator advances only per-flow byte counts on every event; a flow's
bytes reach the counters of its path links when it leaves that path
(completion, abort, cancel, reroute) and when ``snapshot_progress``
settles the counters for a stats read.  Whatever the charging schedule,
a read must see the ground truth: each link's counter equals the bytes
its flows moved *while routed over it*, and a counter never goes back.
This drives a seeded mix of starts, reroutes, link and node failures,
cancels and completions and checks both after every snapshot.
"""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.net.simulator import Flow
from repro.net.switch import build_switches
from repro.sim import EventLoop

MB = 8e6


class LinkLedger:
    """Bytes each link carried, attributed from per-flow counters.

    Every flow ever started stays registered with the link ids it was on
    when last observed, so the bytes it moved since then are booked to
    those links — a reroute books the old path's share before moving on.
    """

    def __init__(self):
        self.expected = defaultdict(float)
        self._seen = {}  # flow_id -> [flow, link ids, bytes_sent booked]

    def observe(self, net):
        for flow_id, flow in net.active_flows.items():
            entry = self._seen.get(flow_id)
            if entry is None or entry[0] is not flow:
                self._seen[flow_id] = [flow, flow.path.link_ids, 0.0]
        for entry in self._seen.values():
            flow, link_ids, booked = entry
            for link_id in link_ids:
                self.expected[link_id] += flow.bytes_sent - booked
            entry[2] = flow.bytes_sent
            if net.active_flows.get(flow.flow_id) is flow:
                entry[1] = flow.path.link_ids


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_port_counters_equal_bytes_moved_on_each_link(seed):
    topo = three_tier()
    table = RoutingTable(topo)
    hosts = sorted(topo.hosts)
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    rng = random.Random(seed)
    trunks = sorted(
        lid
        for lid, link in topo.links.items()
        if link.src in topo.switches and link.dst in topo.switches
    )
    ledger = LinkLedger()
    last = {lid: 0.0 for lid in topo.links}
    down_links, down_nodes = [], []

    for step in range(50):
        action = rng.random()
        live = sorted(net.active_flows)
        if action < 0.35 or not live:
            src, dst = rng.sample(hosts, 2)
            paths = [p for p in table.paths(src, dst) if net.path_is_up(p)]
            if paths:
                net.start_flow(f"f{step}", rng.choice(paths), rng.uniform(5, 300) * MB)
        elif action < 0.50:
            flow = net.active_flows[rng.choice(live)]
            paths = [p for p in table.paths(flow.src, flow.dst) if net.path_is_up(p)]
            if paths:
                net.reroute_flow(flow.flow_id, rng.choice(paths))
        elif action < 0.60:
            net.cancel_flow(rng.choice(live))
        elif action < 0.68:
            down_links.append(rng.choice(trunks))
            net.fail_link(down_links[-1])
        elif action < 0.72:
            down_nodes.append(rng.choice(sorted(topo.switches) + hosts))
            net.fail_node_links(down_nodes[-1])
        elif action < 0.80 and (down_links or down_nodes):
            if down_links:
                net.restore_link(down_links.pop(0))
            if down_nodes:
                net.restore_node_links(down_nodes.pop(0))
        else:
            # Let time pass: flows drain and complete.
            loop.run(until=loop.now + rng.uniform(0.0, 1.0))

        ledger.observe(net)
        if rng.random() < 0.6:
            net.snapshot_progress()
            ledger.observe(net)
            for link_id, link in topo.links.items():
                assert link.bytes_sent == pytest.approx(
                    ledger.expected[link_id], rel=1e-9
                ), link_id
                assert link.bytes_sent >= last[link_id], link_id
                last[link_id] = link.bytes_sent

    loop.run()
    ledger.observe(net)
    for link_id, link in topo.links.items():
        assert link.bytes_sent == pytest.approx(ledger.expected[link_id], rel=1e-9)


def test_stats_reads_at_one_instant_settle_the_counters_once(monkeypatch):
    topo = three_tier()
    table = RoutingTable(topo)
    hosts = sorted(topo.hosts)
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    switches = build_switches(net)
    rng = random.Random(5)
    for i in range(12):
        src, dst = rng.sample(hosts, 2)
        net.start_flow(f"f{i}", rng.choice(table.paths(src, dst)), 1000 * MB)
    loop.run(until=0.5)
    assert len(net.active_flows) == 12

    settles = []
    charge = Flow.charge_links

    def counting(flow):
        settles.append(flow.flow_id)
        charge(flow)

    monkeypatch.setattr(Flow, "charge_links", counting)
    edges = sorted(sid for sid, sw in switches.items() if sw.attached_hosts())
    for switch_id in edges:
        switches[switch_id].flow_stats()
        switches[switch_id].port_stats()
    assert sorted(settles) == sorted(net.active_flows)

    # Once the clock moves, the next read settles every flow once more.
    loop.run(until=0.75)
    for switch_id in edges:
        switches[switch_id].port_stats()
    assert len(settles) == 2 * len(net.active_flows)
