"""Differential property tests: incremental engine ≡ batch solver.

Hypothesis drives random add/remove/abort/reroute sequences against an
:class:`IncrementalRateEngine` and after **every** event compares its
scoped solve to a from-scratch whole-network solve by the dict/set
oracle (``tests/net/fairshare_oracle.py``), not by the dense kernel the
engine itself calls.  Both perform the identical arithmetic on the dirty
component, so rates are bit-identical — except where the batch solver's
1e-12 relative tolerance freezes a bottleneck in one component at a
share another component reached first (DESIGN §9; seeds 998 and 638774
below, last bit of 1e9/3).  Rates must therefore agree to that
tolerance; at the end of the run each connected component is solved on
its own by the oracle, which the engine matches exactly.

A second invariant is checked at every step: no link is ever
oversubscribed — the sum of member rates stays within capacity (up to
the solver's own 1e-12 freeze tolerance, amplified by summation).
"""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import IncrementalRateEngine, RoutingTable, three_tier
from tests.net.fairshare_oracle import max_min_fair_rates

MBPS = 1e6


def assert_engine_matches_batch(engine, flow_links, capacities, demands):
    expected = max_min_fair_rates(flow_links, capacities, demands or None)
    got = dict(engine.rates)
    assert got.keys() == expected.keys()
    for fid, rate in expected.items():
        assert math.isclose(got[fid], rate, rel_tol=1e-12, abs_tol=0.0), fid


def assert_components_match_oracle(engine, flow_links, capacities, demands):
    """Each connected component, solved alone by the oracle, equals (``==``)
    the engine's rates for it."""
    unvisited = set(flow_links)
    members = {}
    for fid, links in flow_links.items():
        for lid in links:
            members.setdefault(lid, []).append(fid)
    rates = engine.rates
    while unvisited:
        stack = [unvisited.pop()]
        component = {}
        while stack:
            fid = stack.pop()
            component[fid] = flow_links[fid]
            for lid in flow_links[fid]:
                for other in members[lid]:
                    if other in unvisited:
                        unvisited.discard(other)
                        stack.append(other)
        component_demands = {f: d for f, d in demands.items() if f in component}
        expected = max_min_fair_rates(component, capacities,
                                      component_demands or None)
        assert {fid: rates[fid] for fid in component} == expected


def assert_no_link_oversubscribed(engine, flow_links, capacities):
    load = {}
    for fid, links in flow_links.items():
        rate = engine.rates[fid]
        for lid in links:
            load[lid] = load.get(lid, 0.0) + rate
    for lid, used in load.items():
        assert used <= capacities[lid] * (1 + 1e-9), lid


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
@example(998)
@example(638774)
def test_property_incremental_rates_bit_identical_to_batch(seed):
    topo = three_tier()
    table = RoutingTable(topo)
    hosts = sorted(topo.hosts)
    capacities = {lid: link.capacity_bps for lid, link in topo.links.items()}
    engine = IncrementalRateEngine(lambda lid: capacities[lid])
    rng = random.Random(seed)

    flow_links = {}
    demands = {}
    for step in range(60):
        action = rng.random()
        live = sorted(flow_links)
        if action < 0.45 or not live:
            # Start a flow, sometimes demand-capped.
            src, dst = rng.sample(hosts, 2)
            path = rng.choice(table.paths(src, dst))
            fid = f"f{step}"
            demand = None
            if rng.random() < 0.25:
                demand = rng.choice([10, 50, 250]) * MBPS
                demands[fid] = demand
            engine.add_flow(fid, path.link_ids, demand_bps=demand)
            flow_links[fid] = tuple(path.link_ids)
        elif action < 0.70:
            # Complete/abort one flow.
            fid = rng.choice(live)
            engine.remove_flow(fid)
            del flow_links[fid]
            demands.pop(fid, None)
        elif action < 0.85:
            # Reroute onto another equal-cost path.
            fid = rng.choice(live)
            old = flow_links[fid]
            src = topo.links[old[0]].src
            dst = topo.links[old[-1]].dst
            new_path = rng.choice(table.paths(src, dst))
            engine.reroute_flow(fid, new_path.link_ids)
            flow_links[fid] = tuple(new_path.link_ids)
        else:
            # Abort burst: several victims, one batched solve.
            for fid in rng.sample(live, min(len(live), 3)):
                engine.remove_flow(fid)
                del flow_links[fid]
                demands.pop(fid, None)

        engine.recompute()
        assert_engine_matches_batch(engine, flow_links, capacities, demands)
        assert_no_link_oversubscribed(engine, flow_links, capacities)

    assert_components_match_oracle(engine, flow_links, capacities, demands)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_property_deferred_recompute_matches_batch(seed):
    """Batching many events into one solve converges to the same rates."""
    topo = three_tier()
    table = RoutingTable(topo)
    hosts = sorted(topo.hosts)
    capacities = {lid: link.capacity_bps for lid, link in topo.links.items()}
    engine = IncrementalRateEngine(lambda lid: capacities[lid])
    rng = random.Random(seed)

    flow_links = {}
    for round_no in range(5):
        for i in range(8):
            live = sorted(flow_links)
            if live and rng.random() < 0.4:
                fid = rng.choice(live)
                engine.remove_flow(fid)
                del flow_links[fid]
            else:
                src, dst = rng.sample(hosts, 2)
                path = rng.choice(table.paths(src, dst))
                fid = f"r{round_no}i{i}"
                engine.add_flow(fid, path.link_ids)
                flow_links[fid] = tuple(path.link_ids)
        solves_before = engine.stats.solves
        engine.recompute()
        assert engine.stats.solves == solves_before + 1
        assert_engine_matches_batch(engine, flow_links, capacities, {})
        assert_no_link_oversubscribed(engine, flow_links, capacities)
