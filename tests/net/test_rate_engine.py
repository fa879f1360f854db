"""Unit tests for the incremental max-min rate engine."""

import math

import pytest

from repro.net import (
    FlowNetwork,
    IncrementalRateEngine,
    RoutingTable,
    three_tier,
)
from repro.sim import EventLoop
from tests.net.fairshare_oracle import max_min_fair_rates

MBPS = 1e6


def make_engine(capacities):
    return IncrementalRateEngine(lambda lid: capacities[lid])


def test_single_flow_gets_bottleneck_capacity():
    engine = make_engine({"a": 100 * MBPS, "b": 40 * MBPS})
    engine.add_flow("f1", ("a", "b"))
    rates = engine.recompute()
    assert rates["f1"] == 40 * MBPS


def test_two_flows_share_common_link_equally():
    engine = make_engine({"a": 100 * MBPS})
    engine.add_flow("f1", ("a",))
    engine.add_flow("f2", ("a",))
    rates = engine.recompute()
    assert rates["f1"] == 50 * MBPS
    assert rates["f2"] == 50 * MBPS


def test_empty_path_flow_rate_is_infinite():
    engine = make_engine({})
    engine.add_flow("local", ())
    rates = engine.recompute()
    assert math.isinf(rates["local"])


def test_demand_cap_is_respected():
    engine = make_engine({"a": 100 * MBPS})
    engine.add_flow("f1", ("a",), demand_bps=10 * MBPS)
    engine.add_flow("f2", ("a",))
    rates = engine.recompute()
    assert rates["f1"] == 10 * MBPS
    assert rates["f2"] == 90 * MBPS


def test_duplicate_add_raises():
    engine = make_engine({"a": MBPS})
    engine.add_flow("f1", ("a",))
    with pytest.raises(ValueError):
        engine.add_flow("f1", ("a",))


def test_remove_unknown_flow_raises():
    engine = make_engine({})
    with pytest.raises(KeyError):
        engine.remove_flow("ghost")
    with pytest.raises(KeyError):
        engine.reroute_flow("ghost", ("a",))


@pytest.mark.parametrize(
    "capacities, error",
    [({"a": 10.0, "b": 0.0}, ValueError), ({"a": 10.0}, KeyError)],
)
def test_bad_capacity_raises_before_anything_changes(capacities, error):
    engine = make_engine(capacities)
    engine.add_flow("f1", ("a",))
    engine.recompute()
    with pytest.raises(error):
        engine.add_flow("f2", ("a", "b"))
    assert engine.flow_count() == 1
    assert dict(engine.rates) == {"f1": 10.0}
    assert engine.recompute() == {}
    with pytest.raises(error):
        engine.reroute_flow("f1", ("b",))
    assert engine.link_utilization_bps("a") == 10.0
    assert engine.recompute() == {}
    # The engine still solves: the failed calls left nothing behind.
    engine.add_flow("f3", ("a",))
    assert engine.recompute() == {"f1": 5.0, "f3": 5.0}
    assert engine.verify_against_batch() == []


def test_remove_flow_releases_capacity():
    engine = make_engine({"a": 100 * MBPS})
    engine.add_flow("f1", ("a",))
    engine.add_flow("f2", ("a",))
    engine.recompute()
    engine.remove_flow("f1")
    rates = engine.recompute()
    assert "f1" not in rates
    assert "f1" not in engine.rates
    assert rates["f2"] == 100 * MBPS


def test_recompute_returns_only_the_resolved_flows():
    engine = make_engine({"a": 100 * MBPS, "b": 100 * MBPS})
    engine.add_flow("left", ("a",))
    engine.add_flow("right", ("b",))
    assert engine.recompute() == {"left": 100 * MBPS, "right": 100 * MBPS}
    engine.add_flow("left2", ("a",))
    assert engine.recompute() == {"left": 50 * MBPS, "left2": 50 * MBPS}
    assert engine.recompute() == {}
    assert dict(engine.rates) == {
        "left": 50 * MBPS, "right": 100 * MBPS, "left2": 50 * MBPS,
    }


def test_reroute_moves_membership():
    engine = make_engine({"a": 100 * MBPS, "b": 60 * MBPS})
    engine.add_flow("f1", ("a",))
    engine.recompute()
    engine.reroute_flow("f1", ("b",))
    rates = engine.recompute()
    assert rates["f1"] == 60 * MBPS
    assert engine.link_utilization_bps("a") == 0.0
    assert engine.link_utilization_bps("b") == 60 * MBPS


def test_recompute_without_changes_is_a_noop():
    engine = make_engine({"a": MBPS})
    engine.add_flow("f1", ("a",))
    engine.recompute()
    solves = engine.stats.solves
    engine.recompute()
    assert engine.stats.solves == solves


def test_scoped_solve_skips_disjoint_component():
    capacities = {"a": 100 * MBPS, "b": 100 * MBPS}
    engine = make_engine(capacities)
    engine.add_flow("left", ("a",))
    engine.add_flow("right", ("b",))
    engine.recompute()
    # A churn event on link "a" must not pull "right" into the solve.
    engine.add_flow("left2", ("a",))
    engine.recompute()
    assert engine.stats.last_dirty_flows == 2
    assert engine.stats.last_dirty_links == 1
    assert engine.rates["right"] == 100 * MBPS
    assert engine.rates["left"] == engine.rates["left2"] == 50 * MBPS


def test_scoped_solve_matches_batch_solver_exactly():
    capacities = {f"l{i}": (10 + 7 * i) * MBPS for i in range(6)}
    engine = make_engine(capacities)
    flow_links = {
        "f0": ("l0", "l1"),
        "f1": ("l1", "l2"),
        "f2": ("l3",),
        "f3": ("l3", "l4"),
        "f4": ("l5",),
    }
    for fid, links in flow_links.items():
        engine.add_flow(fid, links)
        engine.recompute()
    expected = max_min_fair_rates(flow_links, capacities)
    assert dict(engine.rates) == expected
    assert engine.verify_against_batch() == []


def test_link_utilization_sums_member_rates():
    engine = make_engine({"a": 100 * MBPS})
    engine.add_flow("f1", ("a",))
    engine.add_flow("f2", ("a",))
    engine.recompute()
    assert engine.link_utilization_bps("a") == 100 * MBPS
    assert engine.link_utilization_bps("unknown") == 0.0


def test_earliest_completion_picks_fastest_drain():
    """The next completion event fires when the fastest-draining flow ends."""
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    ended = []
    # Disjoint rack-local paths at the full 1 Gbps: 4 s and 2 s of data.
    net.start_flow("f1", table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0], 4e9)
    net.start_flow(
        "f2", table.paths("pod1-rack0-h0", "pod1-rack0-h1")[0], 2e9,
        on_complete=lambda f: ended.append(loop.now),
    )
    assert loop.step()
    assert ended == [2.0]
    assert list(net.active_flows) == ["f1"]


def test_batched_events_cost_one_solve():
    engine = make_engine({"a": 100 * MBPS})
    for i in range(5):
        engine.add_flow(f"f{i}", ("a",))
    solves = engine.stats.solves
    engine.recompute()
    assert engine.stats.solves == solves + 1


def test_flow_network_drives_engine():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    hosts = sorted(topo.hosts)
    path = table.paths(hosts[0], hosts[-1])[0]
    net.start_flow("f1", path, 8e6)
    engine = net.rate_engine
    assert engine.flow_count() == 1
    assert engine.stats.solves >= 1
    assert net.link_utilization_bps(path.link_ids[0]) == engine.rates["f1"]
    assert engine.verify_against_batch() == []
    loop.run()
    assert engine.flow_count() == 0
