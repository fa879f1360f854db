"""Unit tests for Pseudocode 1 (selection and commit)."""

import pytest

from repro.core.flow_state import FlowStateTable
from repro.core.selection import (
    best_candidate,
    commit_choice,
    select_replica_and_path,
)
from tests.core.eq2_oracle import oracle_sweep

MBPS = 1e6


def test_scores_sorted_cheapest_first(fig2_env):
    paths = fig2_env.routing.paths("S", "R")
    choices = oracle_sweep(paths, 9 * MBPS, fig2_env.capacities, fig2_env.state)
    assert len(choices) == 2
    assert choices[0].cost.total < choices[1].cost.total
    assert "E1->A2" in choices[0].path.link_ids
    best = best_candidate(paths, 9 * MBPS, fig2_env.capacities, fig2_env.state)
    assert best == choices[0]


def test_tie_breaks_prefer_higher_bandwidth():
    """Two idle paths with different capacities and equal cost-by-time is
    impossible; craft a tie via identical capacities and check determinism."""
    from tests.core.conftest import build_fig2_topology
    from repro.net import RoutingTable

    topo = build_fig2_topology()
    routing = RoutingTable(topo)
    capacities = {lid: link.capacity_bps for lid, link in topo.links.items()}
    state = FlowStateTable()
    paths = routing.paths("S", "R")
    choices = oracle_sweep(paths, 9 * MBPS, capacities, state)
    assert choices[0].cost.total == choices[1].cost.total
    # deterministic order by path link ids, whatever the input order
    assert choices[0].path.link_ids < choices[1].path.link_ids
    for order in (paths, paths[::-1]):
        assert best_candidate(order, 9 * MBPS, capacities, state) == choices[0]


def test_select_requires_candidates():
    with pytest.raises(ValueError):
        select_replica_and_path(
            [], "f", 1.0, {}, FlowStateTable(), now=0.0
        )


def test_commit_registers_new_flow(fig2_env):
    best = best_candidate(
        fig2_env.routing.paths("S", "R"), 9 * MBPS, fig2_env.capacities, fig2_env.state
    )
    tracked = commit_choice(best, "new", 9 * MBPS, fig2_env.state, now=0.0, job_id="job1")
    assert tracked.job_id == "job1"
    assert fig2_env.state.flows["new"] is tracked
    assert tracked.path_link_ids == best.path.link_ids
    assert tracked.remaining_bits == 9 * MBPS


def test_commit_skips_vanished_existing_flows(fig2_env):
    """A flow that completed between scoring and commit must not crash."""
    best = best_candidate(
        fig2_env.routing.paths("S", "R"), 9 * MBPS, fig2_env.capacities, fig2_env.state
    )
    squeezed = sorted(best.cost.new_bw_of_existing)
    fig2_env.state.remove(squeezed[0])
    commit_choice(best, "new", 9 * MBPS, fig2_env.state, now=0.0)
    assert "new" in fig2_env.state


def test_replica_is_path_source(fig2_env):
    choice = select_replica_and_path(
        fig2_env.routing.paths("S", "R"),
        flow_id="new",
        flow_size_bits=9 * MBPS,
        link_capacity_bps=fig2_env.capacities,
        state=fig2_env.state,
        now=0.0,
    )
    assert choice.replica == "S"


def test_sequential_selections_see_prior_commitments(fig2_env):
    """Scheduling two reads back-to-back: the second must account for the
    first (this is the 'track flow add requests between polls' behaviour)."""
    paths = fig2_env.routing.paths("S", "R")
    first = select_replica_and_path(
        paths, "f1", 9 * MBPS, fig2_env.capacities, fig2_env.state, now=0.0
    )
    second = select_replica_and_path(
        paths, "f2", 9 * MBPS, fig2_env.capacities, fig2_env.state, now=0.0
    )
    # First pick was A2 (cost 3.6); with f1 committed there, A1 becomes
    # the better choice for f2.
    assert "E1->A2" in first.path.link_ids
    assert "E1->A1" in second.path.link_ids
