"""Unit and property tests for the Eq. 2 cost model beyond the Fig. 2 case."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cost import estimate_path_share, flow_cost, new_bandwidth_of_existing
from repro.core.flow_state import FlowStateTable, TrackedFlow

MBPS = 1e6


def make_state(flows):
    state = FlowStateTable()
    for flow_id, links, bw, remaining in flows:
        state.add(
            TrackedFlow(
                flow_id=flow_id,
                path_link_ids=tuple(links),
                size_bits=remaining,
                remaining_bits=remaining,
                bw_bps=bw,
            )
        )
    return state


def test_idle_path_cost_is_pure_transfer_time():
    state = make_state([])
    cost = flow_cost(["l1", "l2"], 10 * MBPS, {"l1": 10 * MBPS, "l2": 10 * MBPS}, state)
    assert cost.est_bw_bps == pytest.approx(10 * MBPS)
    assert cost.total == pytest.approx(1.0)
    assert cost.existing_flows_penalty == 0.0
    assert cost.new_bw_of_existing == {}


def test_unaffected_flows_add_no_penalty():
    # existing flow demand well under the fair share -> untouched
    state = make_state([("bg", ["l1"], 1 * MBPS, 5 * MBPS)])
    cost = flow_cost(["l1"], 10 * MBPS, {"l1": 10 * MBPS}, state)
    assert cost.est_bw_bps == pytest.approx(9 * MBPS)
    assert cost.new_bw_of_existing == {}


def test_flow_on_disjoint_link_is_ignored():
    state = make_state([("bg", ["other"], 10 * MBPS, 5 * MBPS)])
    cost = flow_cost(["l1"], 10 * MBPS, {"l1": 10 * MBPS, "other": 10 * MBPS}, state)
    assert cost.existing_flows_penalty == 0.0


def test_multi_link_overlap_takes_worst_squeeze():
    # bg shares two links with the path; the tighter one caps its new bw
    state = make_state([("bg", ["l1", "l2"], 8 * MBPS, 8 * MBPS)])
    capacities = {"l1": 10 * MBPS, "l2": 4 * MBPS}
    new_bw = new_bandwidth_of_existing(["l1", "l2"], 2 * MBPS, capacities, state)
    # l2: water-fill 4 across [8, 2] -> bg gets 2; l1: [8,2] across 10 -> bg 8
    assert new_bw == {"bg": pytest.approx(2 * MBPS)}


def test_new_bandwidth_never_increases():
    state = make_state(
        [("bg", ["l1"], 3 * MBPS, 5 * MBPS), ("big", ["l1"], 90 * MBPS, 5 * MBPS)]
    )
    new_bw = new_bandwidth_of_existing(["l1"], 20 * MBPS, {"l1": 100 * MBPS}, state)
    # only the flow above the new fair share is squeezed, and only downwards
    assert set(new_bw) == {"big"}
    assert new_bw["big"] < 90 * MBPS


def test_include_existing_flows_false_drops_penalty():
    state = make_state([("bg", ["l1"], 10 * MBPS, 50 * MBPS)])
    full = flow_cost(["l1"], 10 * MBPS, {"l1": 10 * MBPS}, state)
    greedy = flow_cost(
        ["l1"], 10 * MBPS, {"l1": 10 * MBPS}, state, include_existing_flows=False
    )
    assert full.existing_flows_penalty > 0
    assert greedy.existing_flows_penalty == 0.0
    assert greedy.total == greedy.new_flow_time
    assert greedy.est_bw_bps == full.est_bw_bps


def test_precomputed_est_bw_is_respected():
    state = make_state([])
    cost = flow_cost(
        ["l1"], 10 * MBPS, {"l1": 10 * MBPS}, state, share=(2 * MBPS, "l1")
    )
    assert cost.new_flow_time == pytest.approx(5.0)
    assert cost.bottleneck_link_id == "l1"


def test_penalty_is_summed_in_flow_id_order():
    """Float addition is not associative: the penalty runs over sorted flow
    ids, not in the order the path's links list the flows."""
    state = make_state([
        ("z", ["l0"], 9 * MBPS, 1.7e9),
        ("a", ["l1"], 4 * MBPS, 13e6),
        ("m", ["l1"], 8 * MBPS, 5e8),
    ])
    capacities = {"l0": 10 * MBPS, "l1": 10 * MBPS}
    cost = flow_cost(["l0", "l1"], 10 * MBPS, capacities, state, share=(3 * MBPS, "l1"))

    def summed(order):
        penalty = 0.0
        for fid in order:
            flow = state.flows[fid]
            new_bw = cost.new_bw_of_existing[fid]
            penalty += flow.remaining_bits / new_bw - flow.remaining_bits / flow.bw_bps
        return penalty

    assert cost.existing_flows_penalty == summed(["a", "m", "z"])
    assert cost.existing_flows_penalty != summed(["z", "a", "m"])


def test_zero_size_rejected():
    with pytest.raises(ValueError):
        flow_cost(["l1"], 0, {"l1": 10 * MBPS}, FlowStateTable())


def test_estimate_path_share_empty_path_unbounded():
    share, bottleneck = estimate_path_share([], {}, FlowStateTable())
    assert share == math.inf
    assert bottleneck is None


@given(
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.5, max_value=20.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_property_cost_components_consistent(n_bg, size_mb, seed):
    """total == new_flow_time + penalty; penalty non-negative; b_j feasible."""
    import random

    rng = random.Random(seed)
    links = {f"l{i}": rng.uniform(1, 20) * MBPS for i in range(3)}
    flows = []
    for i in range(n_bg):
        flow_links = rng.sample(sorted(links), rng.randint(1, 3))
        bw = rng.uniform(0.1, 10) * MBPS
        flows.append((f"bg{i}", flow_links, bw, rng.uniform(1, 50) * MBPS))
    state = make_state(flows)
    path = sorted(links)
    cost = flow_cost(path, size_mb * MBPS, links, state)
    assert cost.total == pytest.approx(cost.new_flow_time + cost.existing_flows_penalty)
    assert cost.existing_flows_penalty >= 0
    assert cost.est_bw_bps <= min(links.values()) * (1 + 1e-9)
    for flow_id, new_bw in cost.new_bw_of_existing.items():
        assert new_bw < state.flows[flow_id].bw_bps


@given(st.integers(min_value=1, max_value=12))
def test_property_more_contention_means_lower_share(n_bg):
    """Adding background flows can only reduce the probe's estimated share."""
    capacities = {"l": 10 * MBPS}
    shares = []
    for count in (0, n_bg):
        state = make_state(
            [(f"bg{i}", ["l"], 10 * MBPS, 5 * MBPS) for i in range(count)]
        )
        share, _ = estimate_path_share(["l"], capacities, state)
        shares.append(share)
    assert shares[1] <= shares[0] + 1e-9
