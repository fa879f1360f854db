"""Property test: random mid-flight reroutes never corrupt the simulation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sim import EventLoop

MB = 8e6


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_property_reroutes_preserve_volume_and_feasibility(seed):
    """Flows rerouted at random instants still deliver exactly their
    volume, links never exceed capacity, and registries stay exact."""
    topo = three_tier()
    table = RoutingTable(topo)
    hosts = sorted(topo.hosts)
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    rng = random.Random(seed)

    completed = {}
    sizes = {}
    multipath_flows = []
    for i in range(12):
        src, dst = rng.sample(hosts, 2)
        paths = table.paths(src, dst)
        size = rng.uniform(50, 400) * MB
        fid = f"f{i}"
        sizes[fid] = size
        net.start_flow(
            fid,
            rng.choice(paths),
            size,
            on_complete=lambda f: completed.setdefault(f.flow_id, f),
        )
        if len(paths) > 1:
            multipath_flows.append((fid, paths))

    def reroute_random():
        candidates = [
            (fid, paths)
            for fid, paths in multipath_flows
            if fid in net.active_flows
        ]
        if not candidates:
            return
        fid, paths = candidates[rng.randrange(len(candidates))]
        net.reroute_flow(fid, paths[rng.randrange(len(paths))])
        for link in topo.links.values():
            load = net.link_utilization_bps(link.link_id)
            assert load <= link.capacity_bps * (1 + 1e-6)

    for t in sorted(rng.uniform(0.01, 3.0) for _ in range(8)):
        loop.call_at(t, reroute_random)

    loop.run()
    assert len(completed) == 12
    for fid, flow in completed.items():
        assert flow.bytes_sent == pytest.approx(sizes[fid] / 8, rel=1e-6)
    referenced = {fid for link_id in topo.links for fid in net.flows_on(link_id)}
    assert referenced == set()
