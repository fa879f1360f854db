"""``best_candidate`` and the planners built on it against the naive sweep.

The search skips candidates by their ``d/b_j`` lower bound; these tests
hold it to the full Pseudocode 1 sweep of :mod:`tests.core.eq2_oracle` on
generated flow states: frozen flows, zero-bandwidth and zero-remaining
flows, equal and one-ulp-apart capacities, and links shared by many flows
and many candidates.
"""

import copy
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import multireplica, selection
from repro.core.cost import LinkShareCache
from repro.core.flow_state import FlowStateTable, TrackedFlow
from repro.core.multireplica import MultiReplicaPlanner
from repro.core.selection import best_candidate
from repro.net.routing import Path
from tests.core.eq2_oracle import oracle_sweep

MBPS = 1e6
LINKS = tuple(f"l{i}" for i in range(6))
REPLICAS = ("r0", "r1", "r2")
#: Equal capacities tie probe shares; 30 Mbps and its float successor
#: give different ``b_j`` with the same ``d/b_j`` for d = 9 or 80 Mbit.
CAPACITIES = (10 * MBPS, 30 * MBPS, math.nextafter(30 * MBPS, math.inf), 100 * MBPS)
BANDWIDTHS = (0.0, 1 * MBPS, 2.5 * MBPS, 10 * MBPS, 30 * MBPS, 40 * MBPS)
#: Long flows make the penalty, not the bound, decide the winner.
REMAINING = (0.0, 6 * MBPS, 500 * MBPS, 5000 * MBPS)
SIZES = (9 * MBPS, 80 * MBPS, 256 * MBPS)

link_sets = st.lists(st.sampled_from(LINKS), min_size=1, max_size=4, unique=True)


def amounts(pool):
    return st.one_of(st.sampled_from(pool), st.floats(min_value=0.0, max_value=max(pool)))


@st.composite
def scenarios(draw):
    capacities = {lid: draw(st.sampled_from(CAPACITIES)) for lid in LINKS}
    state = FlowStateTable()
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        remaining = draw(amounts(REMAINING))
        state.add(
            TrackedFlow(
                flow_id=f"bg{i:02d}",
                path_link_ids=tuple(draw(link_sets)),
                size_bits=remaining,
                remaining_bits=remaining,
                bw_bps=draw(amounts(BANDWIDTHS)),
                freezed=draw(st.booleans()),
                freeze_until=draw(st.sampled_from((0.0, 5.0, math.inf))),
            )
        )
    paths = {}
    for src, links in draw(
        st.lists(st.tuples(st.sampled_from(REPLICAS), link_sets), min_size=1, max_size=10)
    ):
        paths.setdefault(tuple(links), Path(src=src, dst="client", link_ids=tuple(links)))
    size = draw(st.one_of(st.sampled_from(SIZES), st.floats(min_value=1.0, max_value=1e9)))
    return capacities, state, list(paths.values()), size


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.booleans())
def test_best_candidate_is_the_full_sweeps_head(scenario, include_existing_flows):
    capacities, state, paths, size = scenario
    expected = oracle_sweep(paths, size, capacities, state, include_existing_flows)[0]
    got = best_candidate(
        paths, size, capacities, state, include_existing_flows=include_existing_flows
    )
    assert got.path == expected.path
    for field in ("total", "new_flow_time", "existing_flows_penalty", "est_bw_bps",
                  "bottleneck_link_id", "new_bw_of_existing"):
        assert getattr(got.cost, field) == getattr(expected.cost, field), field


def _oracle_best(paths, size, capacities, state, include_existing_flows=True, cache=None):
    return oracle_sweep(paths, size, capacities, state, include_existing_flows)[0]


def _plan(planner, paths, size, capacities, state, include_existing_flows, cache,
          flow_ids=("new1", "new2")):
    try:
        plans = planner.plan(
            paths, flow_ids, size, capacities, state, now=1.0,
            include_existing_flows=include_existing_flows, cache=cache,
        )
    except ValueError as exc:
        return ("raised", str(exc)), state.flows
    return plans, state.flows


def _mutate(state, op):
    kind, pick, bw, now = op
    ids = sorted(state.flows)
    if not ids:
        return
    flow_id = ids[pick % len(ids)]
    if kind == "remove":
        state.remove(flow_id)
    else:
        state.update_bw_from_stats(flow_id, bw, now)


between_plans = st.tuples(
    st.sampled_from(("updatebw", "remove")),
    st.integers(min_value=0, max_value=63),
    amounts(BANDWIDTHS),
    st.sampled_from((1.0, 10.0, 1e12)),
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.booleans(), st.lists(between_plans, min_size=2, max_size=2))
def test_planner_matches_a_full_sweep_planner(scenario, include_existing_flows, ops):
    capacities, state, paths, size = scenario
    planner = MultiReplicaPlanner()
    fast_state, sweep_state = copy.deepcopy(state), copy.deepcopy(state)
    # One long-lived cache across all three plans and the state changes
    # between them, as the Flowserver runs it.
    cache = LinkShareCache(fast_state)
    for round_, op in enumerate([None] + ops):
        if op is not None:
            _mutate(fast_state, op)
            _mutate(sweep_state, op)
        flow_ids = (f"new{round_}a", f"new{round_}b")
        got = _plan(planner, paths, size, capacities, fast_state, include_existing_flows,
                    cache, flow_ids)
        with mock.patch.object(multireplica, "best_candidate", _oracle_best):
            expected = _plan(planner, paths, size, capacities, sweep_state,
                             include_existing_flows, None, flow_ids)
        assert got == expected


@pytest.mark.parametrize("swap", [False, True])
def test_float_tied_bounds_keep_the_higher_share(swap):
    """d/b_j can tie for two different b_j; the higher b_j must still win."""
    low, high = 30 * MBPS, math.nextafter(30 * MBPS, math.inf)
    assert 9 * MBPS / low == 9 * MBPS / high
    capacities = {"a": high if swap else low, "b": low if swap else high}
    paths = [Path("r0", "client", ("a",)), Path("r1", "client", ("b",))]
    got = best_candidate(paths, 9 * MBPS, capacities, FlowStateTable())
    assert got.cost.est_bw_bps == high
    assert got == oracle_sweep(paths, 9 * MBPS, capacities, FlowStateTable())[0]


def test_penalty_can_outrank_the_lowest_bound():
    """The lowest-bound path squeezes a long flow; the search must go on."""
    capacities = {"busy": 100 * MBPS, "idle": 40 * MBPS}
    state = FlowStateTable()
    state.add(TrackedFlow("bg", ("busy",), 10e9, 10e9, 100 * MBPS))
    paths = [Path("r0", "client", ("busy",)), Path("r1", "client", ("idle",))]
    got = best_candidate(paths, 80 * MBPS, capacities, state)
    assert got.path.link_ids == ("idle",)
    assert got == oracle_sweep(paths, 80 * MBPS, capacities, state)[0]


def test_search_stops_at_the_first_bound_above_the_best_total():
    """An idle fast path costs d/b_j; no slower path's bound can beat it."""
    capacities = {"fast": 100 * MBPS, "slow1": 10 * MBPS, "slow2": 10 * MBPS}
    paths = [Path("r0", "client", (lid,)) for lid in ("slow1", "fast", "slow2")]
    with mock.patch.object(selection, "flow_cost", wraps=selection.flow_cost) as cost:
        got = best_candidate(paths, 80 * MBPS, capacities, FlowStateTable())
    assert got.path.link_ids == ("fast",)
    assert cost.call_count == 1


def test_no_candidates_rejected():
    with pytest.raises(ValueError):
        best_candidate([], 1.0, {}, FlowStateTable())
