"""The engine's exact short-cuts return the oracle's rates, bit for bit.

:meth:`repro.net.fairshare.LinkIndex.solve` folds every link that
carries one flow into that flow's private cap, answers a lone flow
without a demand with its least capacity, and recomputes shares only on
the links a freeze touched.  Each generated instance is one connected
component, and stays one as its flows are added, so the engine's scoped
solve is the whole-network solve and must equal the dict/set oracle
exactly: the same rates (``==``) in the same freeze order.  The
instances mix shared links with private ones (one-flow links, some of
capacity within ``1e-12`` of a shared link's share, some infinite),
paths that list a link twice, and demand caps.

The index keeps each flow's fold (its shared links, private cap and
count of links it is alone on) across membership changes, so the
transition cases below mutate the engine step by step and compare it
with the oracle after every step.  They also check the work counters a
solve reports against their definitions: every distinct link of the
re-solved flows, and every (flow, link) incidence of them.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import IncrementalRateEngine
from tests.net.fairshare_oracle import max_min_fair_rates as oracle
from tests.net.test_fairshare_kernel import CAPACITIES

DEMANDS = (1.0, 2.5e8, 1e9 / 6, 1e9 / 3, 5e8, 1e9 * (1 + 3e-13), math.inf)


@st.composite
def components(draw):
    """Flows in the order they join one component, with capacities and
    demands; every flow after the first shares a link with an earlier one."""
    n_shared = draw(st.integers(min_value=1, max_value=4))
    capacities = {
        f"s{i}": draw(st.sampled_from(CAPACITIES)) for i in range(n_shared)
    }
    n_flows = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.permutations([f"f{i}" for i in range(n_flows)]))
    flows = []
    used = []
    for flow_id in ids:
        joint = draw(st.sampled_from(used or sorted(capacities)))
        path = [joint]
        path += draw(st.lists(st.sampled_from(sorted(capacities)), max_size=2))
        for j in range(draw(st.integers(min_value=0, max_value=2))):
            link_id = f"p-{flow_id}-{j}"
            capacities[link_id] = draw(st.sampled_from(CAPACITIES))
            path.append(link_id)
        if draw(st.booleans()):
            path.append(draw(st.sampled_from(path)))
        path = draw(st.permutations(path))
        demand = draw(st.one_of(st.none(), st.sampled_from(DEMANDS)))
        flows.append((flow_id, tuple(path), demand))
        used.extend(path)
    return flows, capacities


@settings(max_examples=400, deadline=None)
@given(components())
@example(([("f", ("x",), None)], {"x": 1e9}))
@example(([("f", ("x", "y"), 5e8)], {"x": 1e9, "y": math.inf}))
@example(([("f", ("x",), None)], {"x": math.inf}))
@example(([("f", ("x", "x"), None), ("g", ("x", "p"), None)], {"x": 12.0, "p": 5.0}))
@example((
    [("f", ("s", "p"), None), ("g", ("s",), None), ("h", ("s", "q"), None)],
    {"s": 3e9, "p": 1e9 * (1 + 3e-13), "q": math.inf},
))
def test_engine_matches_oracle_on_one_component(instance):
    flows, capacities = instance
    engine = IncrementalRateEngine(lambda link_id: capacities[link_id])
    flow_links = {}
    demands = {}
    for flow_id, path, demand in flows:
        engine.add_flow(flow_id, path, demand_bps=demand)
        flow_links[flow_id] = path
        if demand is not None:
            demands[flow_id] = demand
        solved = engine.recompute()
        expected = oracle(flow_links, capacities, demands or None)
        assert list(solved.items()) == list(expected.items())
    assert dict(engine.rates) == expected


def check_against_oracle(engine, flow_links, capacities, demands):
    """Re-solve, then compare the engine and its counters with the oracle."""
    before = engine.stats.link_visits
    solved = engine.recompute()
    expected = oracle(flow_links, capacities, demands or None)
    assert dict(engine.rates) == expected
    # ``solved`` is the dirty component, in the oracle's freeze order.
    assert list(solved.items()) == [
        (flow_id, rate) for flow_id, rate in expected.items() if flow_id in solved
    ]
    links = {link_id for flow_id in solved for link_id in flow_links[flow_id]}
    assert engine.stats.last_dirty_links == len(links)
    assert engine.stats.link_visits - before == sum(
        len(flow_links[flow_id]) for flow_id in solved
    )


def replay(steps, capacities):
    """Apply ``(op, flow id, path, demand)`` steps, checking after each."""
    engine = IncrementalRateEngine(lambda link_id: capacities[link_id])
    flow_links = {}
    demands = {}
    for op, flow_id, path, demand in steps:
        if op == "add":
            engine.add_flow(flow_id, path, demand_bps=demand)
            flow_links[flow_id] = path
            if demand is not None:
                demands[flow_id] = demand
        elif op == "remove":
            engine.remove_flow(flow_id)
            del flow_links[flow_id]
            demands.pop(flow_id, None)
        else:
            engine.reroute_flow(flow_id, path)
            flow_links[flow_id] = path
        check_against_oracle(engine, flow_links, capacities, demands)
    return engine


TRANSITIONS = {
    # Link ``s`` carries 1, 2, 3, 2 and then 1 flow; each flow's private
    # link is tighter than some of the shares it meets on the way.
    "one-two-three-two-one": (
        [
            ("add", "f", ("s", "pf"), None),
            ("add", "g", ("pg", "s"), None),
            ("add", "h", ("s",), None),
            ("remove", "h", None, None),
            ("remove", "f", None, None),
            ("add", "f", ("s", "pf"), None),
            ("remove", "g", None, None),
        ],
        {"s": 12.0, "pf": 5.0, "pg": 3.0},
    ),
    # ``x`` is listed twice, first by a flow alone on it, then shared,
    # then by both flows, then alone again.
    "repeated-link": (
        [
            ("add", "f", ("x", "p", "x"), None),
            ("add", "g", ("x", "q"), None),
            ("add", "h", ("q", "x", "q"), None),
            ("remove", "g", None, None),
            ("remove", "f", None, None),
            ("add", "f", ("p", "p"), None),
            ("remove", "h", None, None),
        ],
        {"x": 12.0, "p": 20.0, "q": 7.0},
    ),
    # Reroutes keep a shared link, drop others to no flow, and move a
    # flow onto a link another flow was alone on.
    "overlapping-reroute": (
        [
            ("add", "f", ("a", "b", "c"), None),
            ("add", "g", ("b", "d"), None),
            ("reroute", "f", ("b", "e"), None),
            ("reroute", "g", ("e", "b", "a"), None),
            ("reroute", "f", ("c",), None),
            ("reroute", "g", ("c", "d"), None),
            ("reroute", "g", (), None),
        ],
        {"a": 9.0, "b": 10.0, "c": 4.0, "d": 1.5, "e": 6.0},
    ),
    # Removing the middle of a chain leaves two lone flows, each now
    # alone on the link it shared.
    "lone-after-last-neighbour": (
        [
            ("add", "f", ("s", "pf"), None),
            ("add", "g", ("s", "t"), None),
            ("add", "h", ("t", "ph"), None),
            ("remove", "g", None, None),
            ("add", "g", ("pf", "ph"), None),
            ("remove", "f", None, None),
        ],
        {"s": 4.0, "t": 6.0, "pf": 30.0, "ph": 5.0},
    ),
    # Demand caps beside infinite capacities, shared and private.
    "demands-and-infinite-capacities": (
        [
            ("add", "f", ("s", "i"), 2.5e8),
            ("add", "g", ("i", "j"), None),
            ("add", "h", ("s", "i"), math.inf),
            ("add", "k", ("j",), 1e9 / 3),
            ("reroute", "g", ("s", "j"), None),
            ("remove", "h", None, None),
            ("remove", "f", None, None),
            ("remove", "k", None, None),
        ],
        {"s": 5e8, "i": math.inf, "j": math.inf},
    ),
}


@pytest.mark.parametrize("case", sorted(TRANSITIONS))
def test_fold_follows_membership_transitions(case):
    steps, capacities = TRANSITIONS[case]
    engine = replay(steps, capacities)
    assert engine.stats.solves == len(steps)
