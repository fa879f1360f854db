"""Degraded-mode tests: stale stats and dead paths demote the Flowserver
from cost-model optimization to ECMP, and recovery re-promotes it."""

import hashlib

import pytest

from repro.core import Flowserver, FlowserverConfig
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sdn import Controller
from repro.sim import EventLoop

MB = 8e6


def build_env(config=None):
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    routing = RoutingTable(topo)
    controller = Controller(net)
    flowserver = Flowserver(controller, routing, config)
    return loop, net, routing, controller, flowserver


def make_stale(loop, fs, switch_ids, polls=4):
    """Simulate a monitoring outage long enough to cross the threshold."""
    fs.collector.suppress_polls = True
    for _ in range(polls):
        fs.collector.poll_once()
    for switch_id in switch_ids:
        assert fs.collector.consecutive_misses(switch_id) >= polls


def test_stale_counters_trigger_ecmp_fallback():
    loop, net, routing, ctl, fs = build_env(
        FlowserverConfig(enable_multi_replica=False)
    )
    client, replica = "pod0-rack0-h0", "pod1-rack0-h0"
    # every source edge switch goes stale
    make_stale(loop, fs, sorted(ctl.edge_switch_ids()))

    result = fs.select(client, [replica], 256 * MB)
    (a,) = result.assignments
    assert a.path is not None
    assert fs.degraded
    assert fs.degraded_selections == 1
    assert fs.degraded_entries == 1
    # the flow is still tracked so cleanup and later estimates work
    assert a.flow_id in fs.state.flows


def test_recovery_repromotes_and_records_time():
    loop, net, routing, ctl, fs = build_env(
        FlowserverConfig(enable_multi_replica=False)
    )
    client, replica = "pod0-rack0-h0", "pod1-rack0-h0"
    make_stale(loop, fs, sorted(ctl.edge_switch_ids()))
    fs.select(client, [replica], 256 * MB)
    assert fs.degraded

    # polling comes back: a successful poll resets the miss counters
    loop.run(until=loop.now + 2.0)
    fs.collector.suppress_polls = False
    fs.collector.poll_once()
    result = fs.select(client, [replica], 256 * MB)
    assert not fs.degraded
    assert fs.degraded_entries == 1
    assert len(fs.recovery_times) == 1
    assert fs.time_to_recover() == pytest.approx(fs.recovery_times[0])
    # back on the cost model: selection carries a real bandwidth estimate
    (a,) = result.assignments
    assert a.est_bw_bps > 0


def test_unreachable_paths_fall_back_to_ecmp():
    """All paths to the replica cross failed gear: the Flowserver still
    answers (the aborted transfer is the client's retry problem)."""
    loop, net, routing, ctl, fs = build_env(
        FlowserverConfig(enable_multi_replica=False)
    )
    client, replica = "pod0-rack0-h0", "pod0-rack0-h1"
    # sever the only edge link into the replica's rack switch
    ctl.fail_link(f"{replica}->pod0-rack0")

    result = fs.select(client, [replica], 256 * MB)
    assert fs.unreachable_path_selections == 1
    assert fs.degraded_selections == 1
    (a,) = result.assignments
    assert a.path is not None


def test_healthy_subset_avoids_failed_paths():
    """With some paths dead but counters fresh, selection stays on the
    cost model and only ever picks surviving paths."""
    loop, net, routing, ctl, fs = build_env(
        FlowserverConfig(enable_multi_replica=False)
    )
    client, replica = "pod0-rack0-h0", "pod1-rack0-h0"
    paths = routing.paths(replica, client)
    dead = paths[0].link_ids[1]  # a trunk hop on the first candidate
    ctl.fail_link(dead)

    for i in range(4):
        result = fs.select(client, [replica], 64 * MB, job_id=f"j{i}")
        (a,) = result.assignments
        assert dead not in a.path.link_ids
    assert fs.degraded_selections == 0
    assert not fs.degraded


def test_degraded_spreads_across_replicas():
    """ECMP fallback round-robins replicas rather than hammering one."""
    loop, net, routing, ctl, fs = build_env(
        FlowserverConfig(enable_multi_replica=False)
    )
    client = "pod0-rack0-h0"
    replicas = ["pod1-rack0-h0", "pod2-rack0-h0", "pod3-rack0-h0"]
    make_stale(loop, fs, sorted(ctl.edge_switch_ids()))

    picked = set()
    for i in range(6):
        result = fs.select(client, replicas, 64 * MB, job_id=f"j{i}")
        picked.add(result.assignments[0].replica)
    assert len(picked) == len(replicas)


READS = [
    ("pod0-rack0-h0", ["pod1-rack0-h0", "pod2-rack1-h1", "pod0-rack1-h0"]),
    ("pod1-rack1-h0", ["pod0-rack0-h1", "pod3-rack0-h0", "pod2-rack0-h0"]),
    ("pod2-rack0-h1", ["pod0-rack0-h1", "pod1-rack0-h0", "pod3-rack1-h1"]),
    ("pod3-rack1-h0", ["pod0-rack0-h0", "pod3-rack0-h1"]),
    ("pod1-rack1-h1", ["pod3-rack0-h0"]),  # unreachable, then stale
    ("pod3-rack0-h1", ["pod0-rack1-h1", "pod2-rack1-h0"]),  # client cut off
]


def fault_sequence(fs, ctl, loop):
    """Reads around a switch failure, a stale edge switch and both
    recoveries; returns every assignment and the degraded-mode counters."""
    got = []

    def read_all(tag):
        for i, (client, replicas) in enumerate(READS):
            result = fs.select(client, replicas, 64 * MB, job_id=f"{tag}{i}")
            got.extend(
                (a.flow_id, a.replica, a.path.link_ids if a.path else None,
                 a.size_bits, a.est_bw_bps)
                for a in result.assignments
            )

    read_all("healthy")
    ctl.fail_switch("pod0-agg0")
    read_all("switch-down")
    ctl.fail_switch("pod3-rack0")  # also the only way into one replica
    read_all("rack-down")
    for _ in range(3):  # the rack switch misses three polls ...
        fs.collector.poll_once()
    ctl.recover_switch("pod3-rack0")  # ... and is back, but still stale
    ctl.recover_switch("pod0-agg0")
    read_all("stale")
    fs.collector.poll_once()
    read_all("recovered")
    return got, (fs.degraded_selections, fs.degraded_entries,
                 fs.unreachable_path_selections, len(fs.recovery_times))


def test_health_short_cut_keeps_the_selections():
    """Skipping the filters while nothing is down or stale picks exactly
    what filtering every path did, through faults and recovery."""
    loop, net, routing, ctl, fs = build_env()
    got, counters = fault_sequence(fs, ctl, loop)
    assert fs._all_paths_trusted()

    loop, net, routing, ctl, fs = build_env()
    fs._all_paths_trusted = lambda: False  # filter every selection
    assert fault_sequence(fs, ctl, loop) == (got, counters)

    # Pinned before the short-cut existed, when every selection filtered.
    assert counters == (3, 2, 2, 2)
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "9d543b870278e2597c05f2ac841e2a940748d064a3567e0acbe2ba262e673d54"
    )
