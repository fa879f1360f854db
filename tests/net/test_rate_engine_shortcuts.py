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
"""

import math

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
