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
cost exactly one solve.  The 64-host totals of ``link_visits`` and
``dirty_links`` (the links the solves visited) are pinned as well.

The 64-host trace also pins the bits of every completion: each flow's
end time and final byte count, hashed as ``float.hex()`` strings.
Advancing a flow before or after a re-solve, or in one interval instead
of two, moves their last bits and so the digest.
"""

import hashlib

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
#: sha256 over ``(flow_id, end_time.hex(), bytes_sent.hex())`` per
#: completion of the 64-host trace.
COMPLETIONS_SHA256 = (
    "fc0927eff5bee6f474fcebad4a0e823e2368a7a2ec1386e418f4233ba6bdd86b"
)


def churn_stats(pods, racks_per_pod, done=None):
    """Run the churn trace to completion; returns the engine's counters.

    Completed flows are appended to ``done`` when it is given.
    """
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
            t,
            lambda fid=f"f{i}", p=path, s=size: net.start_flow(
                fid, p, s, on_complete=None if done is None else done.append
            ),
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


def test_churn_work_counters_are_pinned(stats_by_scale):
    # Links visited and (flow, link) incidences solved on the 64-host
    # trace: how the solver walks may change, what it covers may not.
    stats = stats_by_scale[0]
    assert (stats.dirty_links, stats.link_visits) == (2865, 2944)


def test_churn_completion_bits_are_pinned():
    done = []
    churn_stats(4, 4, done)
    assert len(done) == CHURN_FLOWS
    digest = hashlib.sha256()
    for flow in done:
        digest.update(
            repr((flow.flow_id, flow.end_time.hex(), flow.bytes_sent.hex())).encode()
        )
    assert digest.hexdigest() == COMPLETIONS_SHA256
