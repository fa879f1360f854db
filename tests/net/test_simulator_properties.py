"""Property-based tests of the fluid network simulator's invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sim import EventLoop

MB = 8e6


@st.composite
def flow_scripts(draw):
    """A random schedule of flow starts (src, dst, path idx, size, at)."""
    n = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    script = []
    for _ in range(n):
        script.append(
            (
                rng.randrange(64),
                rng.randrange(64),
                rng.randrange(8),
                rng.uniform(1, 400) * MB,
                rng.uniform(0, 10),
            )
        )
    return script


def fresh_env():
    """A private topology per example: link registries are stateful."""
    topo = three_tier()
    return topo, RoutingTable(topo), sorted(topo.hosts)


@settings(max_examples=20, deadline=None)
@given(flow_scripts())
def test_property_all_flows_complete_and_conserve(script):
    """Every started flow completes, delivers exactly its volume, and at
    no instant does any link carry more than its capacity."""
    topo, table, hosts = fresh_env()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    completed = {}
    started = 0

    def start(i, src_i, dst_i, path_i, size):
        src, dst = hosts[src_i], hosts[dst_i]
        if src == dst:
            return
        paths = table.paths(src, dst)
        net.start_flow(
            f"f{i}",
            paths[path_i % len(paths)],
            size,
            on_complete=lambda f: completed.setdefault(f.flow_id, f),
        )

    for i, (src_i, dst_i, path_i, size, at) in enumerate(script):
        if hosts[src_i] != hosts[dst_i]:
            started += 1
        loop.call_at(at, start, i, src_i, dst_i, path_i, size)

    # Feasibility probes while running.
    def probe():
        for link in topo.links.values():
            load = net.link_utilization_bps(link.link_id)
            assert load <= link.capacity_bps * (1 + 1e-6)

    for t in (2.0, 5.0, 9.0):
        loop.call_at(t, probe)

    loop.run()
    assert len(completed) == started
    assert not net.active_flows
    for i, (src_i, dst_i, path_i, size, at) in enumerate(script):
        flow = completed.get(f"f{i}")
        if flow is None:
            continue
        assert flow.bytes_sent == pytest.approx(size / 8, rel=1e-6)
        assert flow.end_time >= at


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**31),
)
def test_property_fairness_on_shared_bottleneck(n_flows, seed):
    """Flows sharing one saturated edge link always get equal rates."""
    topo, table, hosts = fresh_env()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    rng = random.Random(seed)
    src = "pod0-rack0-h0"
    dsts = rng.sample([h for h in hosts if h.split("-h")[0] == "pod0-rack0" and h != src], 3)
    for i in range(n_flows):
        dst = dsts[i % len(dsts)]
        net.start_flow(f"f{i}", table.paths(src, dst)[0], 1000 * MB)
    rates = list(net.ground_truth_rates().values())
    assert all(r == pytest.approx(1e9 / n_flows) for r in rates)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_property_cancel_never_corrupts(seed):
    """Interleaved starts and cancels keep the link registries exact."""
    topo, table, hosts = fresh_env()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    rng = random.Random(seed)
    live = []
    for step in range(30):
        if live and rng.random() < 0.4:
            victim = live.pop(rng.randrange(len(live)))
            if victim in net.active_flows:
                net.cancel_flow(victim)
        else:
            src, dst = rng.sample(hosts, 2)
            fid = f"f{step}"
            net.start_flow(fid, rng.choice(table.paths(src, dst)), 100 * MB)
            live.append(fid)
        if rng.random() < 0.3:
            loop.run(until=loop.now + rng.uniform(0, 0.3))
            live = [f for f in live if f in net.active_flows]
    # registry invariant: links reference exactly the active flows
    referenced = {fid for link in topo.links.values() for fid in link.flows}
    assert referenced == set(net.active_flows)
    loop.run()
    assert not net.active_flows
