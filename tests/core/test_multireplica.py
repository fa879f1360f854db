"""Unit tests for §4.3 multi-replica split reads."""

import pytest

from repro.core.flow_state import FlowStateTable, TrackedFlow
from repro.core.multireplica import MultiReplicaPlanner
from repro.net import RoutingTable, Tier, Topology
from repro.net.topology import Host, SwitchNode

MBPS = 1e6


def build_two_replica_topology():
    """Two replicas S1 (rack E1) and S2 (rack E2), reader R in rack E3.

    All racks hang off a single aggregation switch with 10 Mbps links, so a
    read from S1 and a read from S2 use disjoint paths except for the
    shared A->E3 and E3->R tail.
    """
    topo = Topology()
    for sid, tier in [
        ("E1", Tier.EDGE),
        ("E2", Tier.EDGE),
        ("E3", Tier.EDGE),
        ("A", Tier.AGGREGATION),
    ]:
        topo.add_switch(SwitchNode(sid, tier, pod="p0"))
    topo.add_host(Host("S1", rack="E1", pod="p0"))
    topo.add_host(Host("S2", rack="E2", pod="p0"))
    topo.add_host(Host("R", rack="E3", pod="p0"))
    topo.add_cable("S1", "E1", 10 * MBPS)
    topo.add_cable("S2", "E2", 10 * MBPS)
    topo.add_cable("E1", "A", 10 * MBPS)
    topo.add_cable("E2", "A", 10 * MBPS)
    topo.add_cable("A", "E3", 30 * MBPS)  # fat tail so subflows can add up
    topo.add_cable("E3", "R", 30 * MBPS)
    return topo


@pytest.fixture()
def env():
    topo = build_two_replica_topology()
    routing = RoutingTable(topo)
    capacities = {lid: link.capacity_bps for lid, link in topo.links.items()}
    state = FlowStateTable()
    candidates = routing.paths_from_replicas(["S1", "S2"], "R")
    return topo, routing, capacities, state, candidates


def test_split_accepted_when_paths_are_disjoint(env):
    _, _, capacities, state, candidates = env
    planner = MultiReplicaPlanner()
    plans = planner.plan(
        candidates,
        flow_ids=("f1", "f2"),
        flow_size_bits=30 * MBPS,
        link_capacity_bps=capacities,
        state=state,
        now=0.0,
    )
    assert len(plans) == 2
    assert {p.replica for p in plans} == {"S1", "S2"}
    # disjoint 10 Mbps branches: each subflow gets 10 Mbps, sizes split evenly
    assert plans[0].est_bw_bps == pytest.approx(10 * MBPS)
    assert plans[1].est_bw_bps == pytest.approx(10 * MBPS)
    assert plans[0].size_bits + plans[1].size_bits == pytest.approx(30 * MBPS)
    assert plans[0].size_bits == pytest.approx(15 * MBPS)


def test_subflows_finish_simultaneously_by_construction(env):
    _, _, capacities, state, candidates = env
    planner = MultiReplicaPlanner()
    # load S2's branch so the subflows get unequal bandwidth
    state.add(
        TrackedFlow(
            flow_id="bg",
            path_link_ids=("S2->E2",),
            size_bits=100 * MBPS,
            remaining_bits=100 * MBPS,
            bw_bps=10 * MBPS,
        )
    )
    plans = planner.plan(
        candidates,
        flow_ids=("f1", "f2"),
        flow_size_bits=30 * MBPS,
        link_capacity_bps=capacities,
        state=state,
        now=0.0,
    )
    assert len(plans) == 2
    durations = [p.size_bits / p.est_bw_bps for p in plans]
    assert durations[0] == pytest.approx(durations[1])


def test_split_rejected_when_sharing_a_bottleneck():
    """Replicas behind the same 10 Mbps tail: splitting cannot add bandwidth."""
    topo = Topology()
    for sid, tier in [("E1", Tier.EDGE), ("E3", Tier.EDGE), ("A", Tier.AGGREGATION)]:
        topo.add_switch(SwitchNode(sid, tier, pod="p0"))
    topo.add_host(Host("S1", rack="E1", pod="p0"))
    topo.add_host(Host("S2", rack="E1", pod="p0"))
    topo.add_host(Host("R", rack="E3", pod="p0"))
    topo.add_cable("S1", "E1", 10 * MBPS)
    topo.add_cable("S2", "E1", 10 * MBPS)
    topo.add_cable("E1", "A", 10 * MBPS)  # shared bottleneck
    topo.add_cable("A", "E3", 10 * MBPS)
    topo.add_cable("E3", "R", 10 * MBPS)
    routing = RoutingTable(topo)
    capacities = {lid: link.capacity_bps for lid, link in topo.links.items()}
    state = FlowStateTable()
    planner = MultiReplicaPlanner()
    plans = planner.plan(
        routing.paths_from_replicas(["S1", "S2"], "R"),
        flow_ids=("f1", "f2"),
        flow_size_bits=30 * MBPS,
        link_capacity_bps=capacities,
        state=state,
        now=0.0,
    )
    assert len(plans) == 1
    assert "f2" not in state
    assert state.flows["f1"].size_bits == pytest.approx(30 * MBPS)


def test_single_replica_returns_single_plan(env):
    _, routing, capacities, state, _ = env
    planner = MultiReplicaPlanner()
    plans = planner.plan(
        routing.paths_from_replicas(["S1"], "R"),
        flow_ids=("f1", "f2"),
        flow_size_bits=30 * MBPS,
        link_capacity_bps=capacities,
        state=state,
        now=0.0,
    )
    assert len(plans) == 1
    assert plans[0].replica == "S1"


def test_empty_candidates_rejected(env):
    _, _, capacities, state, _ = env
    with pytest.raises(ValueError):
        MultiReplicaPlanner().plan(
            [], ("f1", "f2"), 1.0, capacities, state, now=0.0
        )


def test_state_tracks_split_sizes(env):
    _, _, capacities, state, candidates = env
    plans = MultiReplicaPlanner().plan(
        candidates,
        flow_ids=("f1", "f2"),
        flow_size_bits=30 * MBPS,
        link_capacity_bps=capacities,
        state=state,
        now=0.0,
    )
    assert len(plans) == 2
    for plan in plans:
        tracked = state.flows[plan.flow_id]
        assert tracked.size_bits == pytest.approx(plan.size_bits)
        assert tracked.remaining_bits == pytest.approx(plan.size_bits)
        assert tracked.freezed
