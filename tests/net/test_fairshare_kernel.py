"""The dense-index max-min kernel returns the oracle's rates, bit for bit.

:func:`repro.net.fairshare.max_min_fair_rates` must reproduce the
dict/set progressive filling in ``fairshare_oracle`` exactly: the same
rates (``==`` on floats, no tolerance), inserted in the same order (the
order flows freeze in), and the same ``KeyError``/``ValueError`` for a
missing or non-positive capacity.  The generated instances exercise each
place the two formulations could part ways: demand-capped and uncapped
flows, links whose shares lie within the solver's ``1e-12`` freeze
tolerance of each other, links shared by many flows, empty paths, paths
listing a link twice, and flow ids handed over out of sorted order.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.fairshare import max_min_fair_rates
from tests.net.fairshare_oracle import max_min_fair_rates as oracle

#: A few distinct capacities: two lie within the freeze tolerance of 1e9
#: and one just outside it; an infinite one leaves no finite share.
CAPACITIES = (
    1e9,
    1e9 * (1 + 3e-13),
    1e9 * (1 + 3e-12),
    5e8,
    1e9 / 3,
    10.0,
    math.inf,
)


@st.composite
def instances(draw, with_errors=False):
    n_links = draw(st.integers(min_value=1, max_value=7))
    links = [f"l{i}" for i in range(n_links)]
    capacities = {
        link_id: draw(st.sampled_from(CAPACITIES)) for link_id in links
    }
    if with_errors:
        for link_id in links:
            fault = draw(st.sampled_from(("ok", "ok", "missing", "zero", "negative")))
            if fault == "missing":
                del capacities[link_id]
            elif fault == "zero":
                capacities[link_id] = 0.0
            elif fault == "negative":
                capacities[link_id] = -1.0
    # Few links, many flows: most links end up shared by several flows.
    n_flows = draw(st.integers(min_value=0, max_value=12))
    ids = draw(st.permutations([f"f{i:02d}" for i in range(n_flows)]))
    flow_links = {
        flow_id: draw(st.lists(st.sampled_from(links), max_size=4))
        for flow_id in ids
    }
    demand_values = st.sampled_from(
        (0.0, 1.0, 2.5e8, 1e9 / 6, 1e9 / 3, 5e8, 1e9 * (1 + 3e-13), math.inf)
    )
    demands = {
        flow_id: draw(demand_values)
        for flow_id in ids
        if draw(st.integers(min_value=0, max_value=3)) == 0
    }
    return flow_links, capacities, demands or None


def outcome(solver, flow_links, capacities, demands):
    try:
        return list(solver(flow_links, capacities, demands).items())
    except (KeyError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


@settings(max_examples=400, deadline=None)
@given(instances())
@example(({"b": ["x", "y"], "a": ["x", "y"]}, {"x": 10.0, "y": 10.0}, None))
@example(({"f": ["x", "x"], "g": ["x"]}, {"x": 12.0}, None))
@example(({"f": ["x"], "g": ["y"]}, {"x": 1e9, "y": 1e9 * (1 + 3e-13)}, None))
def test_kernel_matches_oracle_bit_for_bit(instance):
    flow_links, capacities, demands = instance
    assert outcome(max_min_fair_rates, *instance) == outcome(oracle, *instance)


@settings(max_examples=200, deadline=None)
@given(instances(with_errors=True))
def test_kernel_raises_what_the_oracle_raises(instance):
    assert outcome(max_min_fair_rates, *instance) == outcome(oracle, *instance)


def test_near_tie_freezes_both_links_at_the_lower_share():
    """Two single-flow links whose capacities differ by 3e-13 relative are
    one bottleneck: both flows freeze at the smaller share."""
    low, high = 1e9, 1e9 * (1 + 3e-13)
    rates = max_min_fair_rates({"f": ["x"], "g": ["y"]}, {"x": low, "y": high})
    assert rates == {"f": low, "g": low}


def test_result_lists_flows_in_freeze_order():
    rates = max_min_fair_rates(
        {"z": ["big"], "local": [], "b": ["small", "big"], "a": ["small"]},
        {"small": 6.0, "big": 30.0},
    )
    assert list(rates) == ["local", "a", "b", "z"]
    assert rates == {"local": math.inf, "a": 3.0, "b": 3.0, "z": 27.0}


@pytest.mark.parametrize(
    "capacities, error",
    [({}, KeyError), ({"x": 0.0}, ValueError), ({"x": -5.0}, ValueError)],
)
def test_bad_capacity_errors(capacities, error):
    with pytest.raises(error):
        max_min_fair_rates({"f": ["x"]}, capacities)
