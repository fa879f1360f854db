"""Scoped solves beat batch recomputation, and more so as the network grows.

The incremental engine's pitch is §6.4's: at scale, one rack's flow
churn has no business re-solving another pod's rates.  This drives the
fluid simulator through the same Poisson flow-churn recipe at 64, 128
and 256 hosts and reads the engine's work counters: ``link_visits`` is
the (flow, link) incidences the scoped solver processed,
``full_link_visits`` the incidences a from-scratch global solve would
have processed at the same event instants.  Both are exact counts of a
seeded run, so the guard is deterministic: the savings ratio must grow
with scale and clear 5× at 256 hosts, and every membership event must
cost exactly one solve.
"""

import pytest

from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sim import EventLoop
from repro.sim.randomness import seeded_rng

MB = 8e6
SEED = 42
#: Flow-churn trace length per scale (arrivals; completions double it).
CHURN_FLOWS = 600
#: Fraction of transfers that stay inside the source rack (paper
#: workloads are locality-skewed; see Fig. 5's locality distributions).
RACK_LOCAL_FRACTION = 0.4
#: Per-host arrival rate (1/s) — keeps tens of flows concurrently active.
ARRIVAL_RATE_PER_HOST = 0.05


def churn_stats(pods, racks_per_pod):
    """Run the churn trace to completion; returns the engine's counters."""
    topo = three_tier(pods=pods, racks_per_pod=racks_per_pod)
    table = RoutingTable(topo)
    hosts = sorted(topo.hosts)
    by_rack = {}
    for host in topo.hosts.values():
        by_rack.setdefault(host.rack, []).append(host.host_id)
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    rng = seeded_rng(SEED)

    t = 0.0
    for i in range(CHURN_FLOWS):
        t += rng.expovariate(len(hosts) * ARRIVAL_RATE_PER_HOST)
        src = rng.choice(hosts)
        if rng.random() < RACK_LOCAL_FRACTION:
            pool = [h for h in by_rack[topo.hosts[src].rack] if h != src]
        else:
            pool = [h for h in hosts if h != src]
        dst = rng.choice(sorted(pool))
        path = rng.choice(table.paths(src, dst))
        size = rng.choice([4, 16, 64]) * MB
        loop.call_at(
            t, lambda fid=f"f{i}", p=path, s=size: net.start_flow(fid, p, s)
        )
    loop.run()
    assert net.rate_engine.flow_count() == 0  # every transfer drained
    return net.rate_engine.stats


@pytest.fixture(scope="module")
def stats_by_scale():
    return [churn_stats(4, 4), churn_stats(8, 4), churn_stats(8, 8)]


def test_visit_savings_grow_with_scale_and_clear_5x_at_256_hosts(stats_by_scale):
    savings = [stats.visit_savings for stats in stats_by_scale]
    assert savings == sorted(savings), savings
    assert savings[-1] >= 5.0, savings


def test_one_solve_per_membership_event(stats_by_scale):
    for stats in stats_by_scale:
        assert stats.solves == stats.events == 2 * CHURN_FLOWS
