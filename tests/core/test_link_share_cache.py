"""Tests for the per-link allocation memo and its invalidation."""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost import LinkShareCache, estimate_path_share, flow_cost
from repro.core.flow_state import FlowStateTable, LinkMemo, TrackedFlow
from repro.core.selection import best_candidate, select_replica_and_path
from repro.net.fairshare import single_link_fair_allocation
from repro.net.routing import Path

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


def test_each_mutation_kind_drops_only_its_own_links():
    state = make_state([("a", ["up", "core1"], 40 * MBPS), ("b", ["down"], 30 * MBPS)])
    cache = LinkShareCache(state)
    mutations = [
        lambda: state.set_bw("a", 50 * MBPS, now=0.0),
        # a squeezed flow is re-SETBW while still frozen from its own commit
        lambda: state.set_bw("a", 45 * MBPS, now=0.0),
        lambda: state.update_bw_from_stats("a", 60 * MBPS, now=1e9),
        lambda: state.remove("a"),
        lambda: state.add(TrackedFlow("a", ("up", "core1"), 8e7, 8e7, 20 * MBPS)),
    ]
    for mutate in mutations:
        for link_id, capacity in CAPACITIES.items():
            cache.probe_share(link_id, capacity)
        others = {lid: state.link_memo[lid] for lid in ("core2", "down")}
        mutate()
        assert "up" not in state.link_memo and "core1" not in state.link_memo
        for link_id, entry in others.items():
            assert state.link_memo[link_id] is entry


def test_suppressed_updates_and_volume_refreshes_keep_the_memo():
    state = make_state([("a", ["up", "core1"], 40 * MBPS)])
    state.set_bw("a", 50 * MBPS, now=0.0)
    cache = LinkShareCache(state)
    for link_id, capacity in CAPACITIES.items():
        cache.probe_share(link_id, capacity)
    before = dict(state.link_memo)
    assert not state.update_bw_from_stats("a", 10 * MBPS, now=0.5)  # still frozen
    state.update_remaining("a", 1.0)
    assert state.link_memo == before


# ----------------------------------------------------------------------
# Differential: one long-lived cache against a fresh cache per lookup
# ----------------------------------------------------------------------

LINKS = ("l0", "l1", "l2", "l3", "l4")
BANDWIDTHS = (0.0, 1 * MBPS, 10 * MBPS, 30 * MBPS, 40 * MBPS)
link_sets = st.lists(st.sampled_from(LINKS), min_size=1, max_size=3, unique=True)
bandwidths = st.one_of(st.sampled_from(BANDWIDTHS), st.floats(min_value=0.0, max_value=100 * MBPS))
instants = st.sampled_from((0.0, 0.5, 3.0, 1e9))
picks = st.integers(min_value=0, max_value=63)

mutations = st.one_of(
    st.tuples(st.just("add"), link_sets, bandwidths, st.booleans(), instants),
    st.tuples(st.just("remove"), picks),
    st.tuples(st.just("setbw"), picks, bandwidths, instants),
    st.tuples(st.just("updatebw"), picks, bandwidths, instants),
    st.tuples(st.just("remaining"), picks, st.sampled_from((0.0, 6 * MBPS, 500 * MBPS))),
    st.tuples(st.just("commit"), st.lists(link_sets, min_size=1, max_size=4),
              st.sampled_from((9 * MBPS, 80 * MBPS)), instants),
)


def fresh_copy(state):
    """The same flows in a table whose memo has never been filled."""
    table = FlowStateTable()
    for flow in state.flows.values():
        table.add(dataclasses.replace(flow))
    return table


def as_paths(link_sets_):
    return [Path(src=f"r{i}", dst="client", link_ids=tuple(links))
            for i, links in enumerate(link_sets_)]


def assert_lookups_match(state, cache, capacities, demand, paths, size):
    fresh = fresh_copy(state)
    for link_id in LINKS:
        capacity = capacities[link_id]
        reference = LinkShareCache(fresh)
        assert cache.probe_share(link_id, capacity) == reference.probe_share(link_id, capacity)
        assert cache.members(link_id) == [state.flows[f.flow_id] for f in reference.members(link_id)]
        assert (cache.newcomer_allocation(link_id, capacity, demand)
                == LinkShareCache(fresh).newcomer_allocation(link_id, capacity, demand))
    got = best_candidate(paths, size, capacities, state, cache=cache)
    expected = best_candidate(paths, size, capacities, fresh, cache=LinkShareCache(fresh))
    assert got == expected


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.fixed_dictionaries({lid: st.sampled_from((10 * MBPS, 100 * MBPS)) for lid in LINKS}),
    st.lists(mutations, min_size=1, max_size=14),
    bandwidths,
)
def test_long_lived_cache_matches_a_fresh_cache_after_every_mutation(capacities, ops, demand):
    state = FlowStateTable()
    cache = LinkShareCache(state)
    serial = 0
    for op in ops:
        kind, ids = op[0], sorted(state.flows)
        if kind == "add":
            _, links, bw, freezed, until = op
            state.add(TrackedFlow(f"f{serial:02d}", tuple(links), 80 * MBPS, 80 * MBPS, bw,
                                  freezed=freezed, freeze_until=until))
            serial += 1
        elif kind == "commit":
            _, path_links, size, now = op
            try:
                select_replica_and_path(as_paths(path_links), f"f{serial:02d}", size,
                                        capacities, state, now, cache=cache)
            except ValueError:
                pass  # every candidate at zero share: nothing committed
            serial += 1
        elif ids:
            flow_id = ids[op[1] % len(ids)]
            if kind == "remove":
                state.remove(flow_id)
            elif kind == "setbw":
                state.set_bw(flow_id, op[2], op[3])
            elif kind == "updatebw":
                state.update_bw_from_stats(flow_id, op[2], op[3])
            else:
                state.update_remaining(flow_id, op[2])
        assert_lookups_match(state, cache, capacities, demand,
                             as_paths([LINKS[:2], LINKS[1:4], LINKS[3:]]), 80 * MBPS)


# ----------------------------------------------------------------------
# Kernel: a memo's fills against the reference water-fill, bit for bit
# ----------------------------------------------------------------------

DEMANDS = (0.0, 5 * MBPS, 10 * MBPS, 25 * MBPS, math.inf)
demands_st = st.one_of(
    st.sampled_from(DEMANDS), st.floats(min_value=0.0, max_value=200 * MBPS)
)
capacities_st = st.one_of(
    st.sampled_from((10 * MBPS, 30 * MBPS, 100 * MBPS)),
    st.floats(min_value=1.0, max_value=1e10),
)


def memo_of(demands):
    # Two-digit ids keep member order equal to input order.
    return LinkMemo(
        [TrackedFlow(f"f{i:02d}", ("l",), 8e7, 8e7, d) for i, d in enumerate(demands)]
    )


def assert_fills_match(capacity, demands, newcomer):
    memo = memo_of(demands)
    probe = single_link_fair_allocation(capacity, demands + [math.inf])[-1]
    assert memo.probe_fill(capacity) == probe
    reference = single_link_fair_allocation(capacity, demands + [newcomer])
    allocation, squeezed = memo.newcomer_fill(capacity, newcomer)
    assert allocation == reference
    assert squeezed == [
        (f"f{i:02d}", slot)
        for i, (demand, slot) in enumerate(zip(demands, reference))
        if slot < demand
    ]


@settings(max_examples=400, deadline=None)
@given(capacities_st, st.lists(demands_st, max_size=8), st.data())
def test_memo_fills_are_bit_identical_to_the_reference(capacity, demands, data):
    # The newcomer is drawn like a member, or ties one exactly.
    pool = st.one_of(demands_st, st.sampled_from(demands)) if demands else demands_st
    assert_fills_match(capacity, demands, data.draw(pool))


@pytest.mark.parametrize(
    "capacity, demands, newcomer",
    [
        (30 * MBPS, [10 * MBPS, 10 * MBPS, 10 * MBPS], 10 * MBPS),  # all tied
        (30 * MBPS, [0.0, 0.0, 5 * MBPS], 0.0),  # zero demands and a zero newcomer
        (30 * MBPS, [math.inf, 5 * MBPS, math.inf], math.inf),  # unbounded demands
        (30 * MBPS, [10 * MBPS, 10 * MBPS], 10 * MBPS),  # used up at the last step
        (10 * MBPS, [math.inf], 2 * MBPS),  # the member takes what is left, exactly
        (10 * MBPS, [], 4 * MBPS),  # an empty link
    ],
)
def test_memo_fill_edge_cases(capacity, demands, newcomer):
    assert_fills_match(capacity, demands, newcomer)


@pytest.mark.parametrize(
    "demands, newcomer",
    [([10 * MBPS, -1.0], 5 * MBPS), ([10 * MBPS], -2.0), ([-3.0, 0.0], math.inf)],
)
def test_negative_demands_raise_the_reference_error(demands, newcomer):
    memo = memo_of(demands)
    with pytest.raises(ValueError) as reference:
        single_link_fair_allocation(30 * MBPS, demands + [newcomer])
    with pytest.raises(ValueError) as got:
        memo.newcomer_fill(30 * MBPS, newcomer)
    assert str(got.value) == str(reference.value)
    if min(demands) < 0:
        with pytest.raises(ValueError) as got:
            memo.probe_fill(30 * MBPS)
        assert str(got.value) == str(reference.value)
