"""Unit and property tests for max-min fair-share arithmetic."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import max_min_fair_rates, single_link_fair_allocation


class TestSingleLinkAllocation:
    def test_equal_split_unbounded(self):
        alloc = single_link_fair_allocation(10e6, [math.inf, math.inf])
        assert alloc == [5e6, 5e6]

    def test_demands_below_fair_share_are_met(self):
        alloc = single_link_fair_allocation(10e6, [2e6, math.inf])
        assert alloc == [2e6, 8e6]

    def test_paper_fig2_second_link(self):
        """Fig. 2b: 10 Mbps link with flows (2,2,6); probe gets 3, the 6 drops to 3."""
        alloc = single_link_fair_allocation(10e6, [2e6, 2e6, 6e6, math.inf])
        assert alloc[0] == pytest.approx(2e6)
        assert alloc[1] == pytest.approx(2e6)
        assert alloc[2] == pytest.approx(3e6)
        assert alloc[3] == pytest.approx(3e6)

    def test_paper_fig2_third_link(self):
        """Fig. 2b third link: one 10 Mbps flow + probe -> 5 each; probe is
        capped by the 3 Mbps bottleneck elsewhere, and with demand 3 the
        existing flow keeps 7."""
        alloc = single_link_fair_allocation(10e6, [10e6, math.inf])
        assert alloc == [5e6, 5e6]
        alloc_with_capped_probe = single_link_fair_allocation(10e6, [10e6, 3e6])
        assert alloc_with_capped_probe == [7e6, 3e6]

    def test_empty(self):
        assert single_link_fair_allocation(10e6, []) == []

    def test_zero_demand_flow_gets_nothing(self):
        alloc = single_link_fair_allocation(10e6, [0.0, math.inf])
        assert alloc == [0.0, 10e6]

    def test_undersubscribed_link_meets_all_demands(self):
        alloc = single_link_fair_allocation(100e6, [10e6, 20e6, 30e6])
        assert alloc == [10e6, 20e6, 30e6]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            single_link_fair_allocation(0, [1.0])

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            single_link_fair_allocation(10e6, [-1.0])

    @given(
        st.floats(min_value=1.0, max_value=1e10),
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1e10),
                st.just(math.inf),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_property_feasible_and_demand_capped(self, capacity, demands):
        alloc = single_link_fair_allocation(capacity, demands)
        assert len(alloc) == len(demands)
        assert sum(alloc) <= capacity * (1 + 1e-9)
        for a, d in zip(alloc, demands):
            assert a <= d * (1 + 1e-9) if math.isfinite(d) else True
            assert a >= 0

    @given(
        st.floats(min_value=1.0, max_value=1e10),
        st.lists(st.just(math.inf), min_size=1, max_size=20),
    )
    def test_property_unbounded_demands_share_equally(self, capacity, demands):
        alloc = single_link_fair_allocation(capacity, demands)
        expected = capacity / len(demands)
        for a in alloc:
            assert a == pytest.approx(expected)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=10)
    )
    def test_property_work_conserving_when_oversubscribed(self, demands):
        """If total demand exceeds capacity, the link is fully used."""
        capacity = sum(demands) * 0.5
        alloc = single_link_fair_allocation(capacity, demands)
        assert sum(alloc) == pytest.approx(capacity)


class TestGlobalMaxMin:
    def test_single_flow_gets_bottleneck(self):
        rates = max_min_fair_rates({"f": ["a", "b"]}, {"a": 10.0, "b": 4.0})
        assert rates["f"] == pytest.approx(4.0)

    def test_two_flows_shared_link(self):
        rates = max_min_fair_rates(
            {"f1": ["l"], "f2": ["l"]},
            {"l": 10.0},
        )
        assert rates["f1"] == pytest.approx(5.0)
        assert rates["f2"] == pytest.approx(5.0)

    def test_classic_three_flow_example(self):
        """f1 on A, f2 on A+B, f3 on B; both links capacity 10.

        Max-min: f2 bottlenecked to 5 on both; f1 and f3 then get 5 each.
        """
        rates = max_min_fair_rates(
            {"f1": ["A"], "f2": ["A", "B"], "f3": ["B"]},
            {"A": 10.0, "B": 10.0},
        )
        assert rates == pytest.approx({"f1": 5.0, "f2": 5.0, "f3": 5.0})

    def test_asymmetric_links_progressive_filling(self):
        """f2 crosses a 6-unit and a 30-unit link; f1 shares only the 6."""
        rates = max_min_fair_rates(
            {"f1": ["small"], "f2": ["small", "big"], "f3": ["big"]},
            {"small": 6.0, "big": 30.0},
        )
        assert rates["f1"] == pytest.approx(3.0)
        assert rates["f2"] == pytest.approx(3.0)
        assert rates["f3"] == pytest.approx(27.0)

    def test_demand_capped_flow_releases_capacity(self):
        rates = max_min_fair_rates(
            {"f1": ["l"], "f2": ["l"]},
            {"l": 10.0},
            flow_demands={"f1": 2.0},
        )
        assert rates["f1"] == pytest.approx(2.0)
        assert rates["f2"] == pytest.approx(8.0)

    def test_flow_with_no_links_is_unbounded(self):
        rates = max_min_fair_rates({"local": []}, {})
        assert rates["local"] == math.inf

    def test_missing_capacity_raises(self):
        with pytest.raises(KeyError):
            max_min_fair_rates({"f": ["ghost"]}, {})

    def test_empty_input(self):
        assert max_min_fair_rates({}, {}) == {}

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_property_allocation_feasible_and_maxmin(self, n_flows, n_links, seed):
        import random

        rng = random.Random(seed)
        links = {f"l{i}": rng.uniform(1.0, 100.0) for i in range(n_links)}
        flows = {
            f"f{i}": rng.sample(sorted(links), rng.randint(1, n_links))
            for i in range(n_flows)
        }
        rates = max_min_fair_rates(flows, links)

        # Feasibility: no link oversubscribed.
        for link_id, capacity in links.items():
            load = sum(rates[f] for f, ls in flows.items() if link_id in ls)
            assert load <= capacity * (1 + 1e-6)

        # Max-min property: every flow is bottlenecked somewhere, i.e. it
        # crosses a saturated link where it has a maximal rate.
        for flow_id, flow_links in flows.items():
            bottlenecked = False
            for link_id in flow_links:
                load = sum(rates[f] for f, ls in flows.items() if link_id in ls)
                saturated = load >= links[link_id] * (1 - 1e-6)
                members = [f for f, ls in flows.items() if link_id in ls]
                maximal = rates[flow_id] >= max(rates[f] for f in members) * (1 - 1e-6)
                if saturated and maximal:
                    bottlenecked = True
                    break
            assert bottlenecked, f"{flow_id} is not max-min bottlenecked"

