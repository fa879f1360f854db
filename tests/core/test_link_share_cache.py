"""Tests for the sweep-spanning per-link allocation cache."""

import pytest

from repro.core.cost import LinkShareCache, estimate_path_share, flow_cost
from repro.core.flow_state import FlowStateTable, TrackedFlow

MBPS = 1e6


def make_state(flows):
    state = FlowStateTable()
    for flow_id, links, bw in flows:
        state.add(
            TrackedFlow(
                flow_id=flow_id,
                path_link_ids=tuple(links),
                size_bits=80 * MBPS,
                remaining_bits=80 * MBPS,
                bw_bps=bw,
            )
        )
    return state


CAPACITIES = {"up": 100 * MBPS, "core1": 100 * MBPS, "core2": 100 * MBPS,
              "down": 100 * MBPS}


def test_cached_sweep_is_bit_identical_to_uncached():
    state = make_state(
        [("bg1", ["up", "core1"], 40 * MBPS), ("bg2", ["down"], 30 * MBPS)]
    )
    paths = [["up", "core1", "down"], ["up", "core2", "down"]]
    cache = LinkShareCache(state)
    for path in paths:
        cached = flow_cost(path, 80 * MBPS, CAPACITIES, state, cache=cache)
        fresh = flow_cost(path, 80 * MBPS, CAPACITIES, state)
        assert cached == fresh


def test_shared_links_hit_the_cache():
    state = make_state([("bg", ["up"], 40 * MBPS)])
    cache = LinkShareCache(state)
    estimate_path_share(["up", "core1", "down"], CAPACITIES, state, cache=cache)
    assert cache.hits == 0
    estimate_path_share(["up", "core2", "down"], CAPACITIES, state, cache=cache)
    # "up" and "down" probe shares replayed from the memo.
    assert cache.hits == 2
    assert 0.0 < cache.hit_rate < 1.0


def test_any_state_mutation_invalidates():
    state = make_state([("bg", ["up"], 40 * MBPS)])
    cache = LinkShareCache(state)
    before, _ = estimate_path_share(["up"], CAPACITIES, state, cache=cache)
    state.set_bw("bg", 90 * MBPS, now=0.0)
    after, _ = estimate_path_share(["up"], CAPACITIES, state, cache=cache)
    fresh, _ = estimate_path_share(["up"], CAPACITIES, state)
    assert after == fresh
    assert after != before


def test_membership_change_invalidates():
    state = make_state([("bg", ["up"], 100 * MBPS)])
    cache = LinkShareCache(state)
    first, _ = estimate_path_share(["up"], CAPACITIES, state, cache=cache)
    assert first == pytest.approx(50 * MBPS)
    state.remove("bg")
    second, _ = estimate_path_share(["up"], CAPACITIES, state, cache=cache)
    assert second == pytest.approx(100 * MBPS)


def test_version_counter_bumps_on_every_mutation_kind():
    state = make_state([("bg", ["up"], 40 * MBPS)])
    v = state.version
    state.set_bw("bg", 50 * MBPS, now=0.0)
    assert state.version > v
    v = state.version
    # a squeezed flow is re-SETBW while still frozen from its own commit
    state.set_bw("bg", 45 * MBPS, now=0.0)
    assert state.version > v
    v = state.version
    state.update_bw_from_stats("bg", 60 * MBPS, now=1e9)
    assert state.version > v
    v = state.version
    state.remove("bg")
    assert state.version > v
