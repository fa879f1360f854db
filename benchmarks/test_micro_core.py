"""Micro-benchmarks of the hot paths (real pytest-benchmark timings).

These measure the substrate costs that bound how large a deployment the
reproduction can simulate: Flowserver selection latency, global max-min
recomputation, event-loop throughput and routing enumeration.
"""

import pytest

from repro.core import FlowStateTable, TrackedFlow, select_replica_and_path
from repro.core.cost import flow_cost
from repro.net import RoutingTable, max_min_fair_rates, three_tier
from repro.sim import EventLoop
from repro.sim.randomness import seeded_rng

MBPS = 1e6


@pytest.fixture(scope="module")
def loaded_state():
    """A 64-host topology with 60 background flows registered."""
    topo = three_tier()
    routing = RoutingTable(topo)
    capacities = {lid: link.capacity_bps for lid, link in topo.links.items()}
    state = FlowStateTable()
    rng = seeded_rng(1)
    hosts = sorted(topo.hosts)
    for i in range(60):
        src, dst = rng.sample(hosts, 2)
        path = rng.choice(routing.paths(src, dst))
        state.add(
            TrackedFlow(
                flow_id=f"bg{i}",
                path_link_ids=path.link_ids,
                size_bits=2048 * MBPS,
                remaining_bits=rng.uniform(100, 2000) * MBPS,
                bw_bps=rng.uniform(50, 500) * MBPS,
            )
        )
    return topo, routing, capacities, state


def test_flowserver_selection_latency(benchmark, loaded_state):
    """One full SELECTREPLICAANDPATH over 3 replicas x 8 paths, 60 bg flows."""
    topo, routing, capacities, state = loaded_state
    candidates = routing.paths_from_replicas(
        ["pod1-rack0-h0", "pod2-rack1-h1", "pod3-rack2-h2"], "pod0-rack0-h0"
    )
    counter = [0]

    def select():
        counter[0] += 1
        flow_id = f"sel{counter[0]}"
        choice = select_replica_and_path(
            candidates, flow_id, 2048 * MBPS, capacities, state, now=0.0
        )
        state.remove(flow_id)
        return choice

    benchmark(select)


def test_cost_evaluation_latency(benchmark, loaded_state):
    """Eq. 2 for a single candidate path."""
    topo, routing, capacities, state = loaded_state
    path = routing.paths("pod1-rack0-h0", "pod0-rack0-h0")[0]
    benchmark(
        flow_cost, path.link_ids, 2048 * MBPS, capacities, state
    )


def test_global_maxmin_recompute(benchmark, loaded_state):
    """Ground-truth progressive filling over 60 flows (the simulator's cost
    per flow add/remove)."""
    topo, routing, capacities, state = loaded_state
    flow_links = {fid: f.path_link_ids for fid, f in state.flows.items()}
    benchmark(max_min_fair_rates, flow_links, capacities)


def test_event_loop_throughput(benchmark):
    """Schedule-and-fire cost of 10k events."""

    def run_10k():
        loop = EventLoop()
        for i in range(10000):
            loop.call_at(i * 0.001, lambda: None)
        loop.run()
        return loop.events_processed

    assert benchmark(run_10k) == 10000


def test_routing_enumeration(benchmark):
    """Cold shortest-path enumeration for one cross-pod host pair."""

    def enumerate_paths():
        table = RoutingTable(three_tier())
        return len(table.paths("pod0-rack0-h0", "pod3-rack3-h3"))

    assert benchmark(enumerate_paths) == 8

