"""Property test: max-min rates never exceed link capacity.

Drives the fluid simulator through random sequences of flow starts, flow
cancellations and link failures/restorations, asserting after every step
that the global max-min allocation keeps every link within capacity and
every flow rate non-negative.  This is the invariant the robustness layer
leans on: a failure must *reallocate* bandwidth, never oversubscribe it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.net.fairshare import max_min_fair_rates
from repro.sim import EventLoop

MB = 8e6


def fresh_env():
    topo = three_tier()
    return topo, RoutingTable(topo), sorted(topo.hosts)


def assert_feasible(topo, net):
    rates = net.ground_truth_rates()
    for rate in rates.values():
        assert rate >= 0
    for link in topo.links.values():
        load = sum(rates[fid] for fid in link.flows if fid in rates)
        assert load <= link.capacity_bps * (1 + 1e-6), link.link_id


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_property_rates_feasible_under_add_remove_and_failure(seed):
    topo, table, hosts = fresh_env()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    rng = random.Random(seed)
    trunks = sorted(
        lid
        for lid, link in topo.links.items()
        if link.src in topo.switches and link.dst in topo.switches
    )
    live = []
    failed = []
    aborted = []

    for step in range(40):
        action = rng.random()
        if action < 0.45 or not live:
            src, dst = rng.sample(hosts, 2)
            paths = [p for p in table.paths(src, dst) if net.path_is_up(p)]
            if paths:
                fid = f"f{step}"
                net.start_flow(
                    fid,
                    rng.choice(paths),
                    rng.uniform(10, 500) * MB,
                    on_abort=lambda f, e: aborted.append(f.flow_id),
                )
                live.append(fid)
        elif action < 0.65:
            victim = live.pop(rng.randrange(len(live)))
            if victim in net.active_flows:
                net.cancel_flow(victim)
        elif action < 0.85 and len(failed) < 4:
            link_id = rng.choice(trunks)
            if net.topology.links[link_id].up:
                net.fail_link(link_id)
                failed.append(link_id)
        elif failed:
            net.restore_link(failed.pop(rng.randrange(len(failed))))

        assert_feasible(topo, net)

        if rng.random() < 0.3:
            loop.run(until=loop.now + rng.uniform(0, 0.2))
            live = [f for f in live if f in net.active_flows]
            assert_feasible(topo, net)

    # aborted flows left the registries entirely
    for fid in aborted:
        assert fid not in net.active_flows
    referenced = {fid for link in topo.links.values() for fid in link.flows}
    assert referenced == set(net.active_flows)

    # heal everything and drain: the survivors all finish
    for link_id in failed:
        net.restore_link(link_id)
    loop.run()
    assert not net.active_flows


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_property_failure_redistributes_to_survivors(seed):
    """After a trunk failure, survivors get exactly the max-min allocation
    recomputed over the surviving flows alone.

    Note per-flow monotonicity ("freeing capacity can only help") is NOT a
    max-min invariant: removing flows can move a survivor's bottleneck and
    *reduce* a third flow's share.  The strongest true property is that the
    post-failure rates are the fresh water-filling solution for the flows
    that remain, with nothing left over-subscribed.
    """
    topo, table, hosts = fresh_env()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    rng = random.Random(seed)

    for i in range(12):
        src, dst = rng.sample(hosts, 2)
        net.start_flow(f"f{i}", rng.choice(table.paths(src, dst)), 1000 * MB)

    trunks = [
        lid
        for lid, link in topo.links.items()
        if link.src in topo.switches and link.dst in topo.switches
    ]
    victim_link = rng.choice(sorted(trunks))
    victims = {f.flow_id for f in net.fail_link(victim_link)}
    after = net.ground_truth_rates()

    assert_feasible(topo, net)
    survivors = {
        fid: flow.path.link_ids for fid, flow in net.active_flows.items()
    }
    assert victims.isdisjoint(after)
    assert set(after) == set(survivors)
    expected = max_min_fair_rates(
        survivors,
        {lid: link.capacity_bps for lid, link in topo.links.items()},
    )
    for fid, rate in after.items():
        assert rate == pytest.approx(expected[fid], rel=1e-9)
