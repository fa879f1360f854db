"""Adaptive monitoring tests: a differential harness pinning selection
quality against the fixed poller, plus property tests for push
reconciliation idempotence and the per-flow cadence ceiling.

The differential test is the contract for ``poll_mode="adaptive"``: on
the same seeded workload it must make the *same selection decisions* as
fixed polling (or land within tolerance on the fig. 4 metric) while
cutting controller poll traffic by an order of magnitude at 64+ edge
switches.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Flowserver, FlowserverConfig
from repro.core.adaptive_stats import (
    CADENCE_FAST,
    CADENCE_SLOW,
    AdaptiveSchedule,
    AdaptiveStatsConfig,
)
from repro.core.flow_state import FlowStateTable, TrackedFlow
from repro.core.stats import FixedSchedule, FlowStatsCollector
from repro.experiments.runner import SchemeRunConfig, run_scheme_on_workload
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sdn import Controller
from repro.sdn.openflow import CounterPush, CounterPushBatch
from repro.sim import EventLoop
from repro.workload.generator import WorkloadConfig, generate_workload

GB = 8e9
MB = 8e6


def build_env(poll_interval=1.0, config=None, **topo_kwargs):
    topo = three_tier(**topo_kwargs)
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    controller = Controller(net)
    state = FlowStateTable()
    collector = FlowStatsCollector(
        loop, controller, state, poll_interval=poll_interval,
        schedule=AdaptiveSchedule(config),
    )
    return loop, net, table, controller, state, collector


def track(state, flow_id, path, size, bw):
    state.add(
        TrackedFlow(
            flow_id=flow_id,
            path_link_ids=path.link_ids,
            size_bits=size,
            remaining_bits=size,
            bw_bps=bw,
        )
    )


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_poll_mode_validation():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    controller = Controller(net)
    with pytest.raises(ValueError, match="poll_mode"):
        Flowserver(
            controller,
            RoutingTable(topo),
            FlowserverConfig(poll_mode="sometimes"),
        )


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveStatsConfig(slow_factor=0.5)
    with pytest.raises(ValueError):
        AdaptiveStatsConfig(probe_failed_every=0)


def test_flowserver_picks_adaptive_schedule():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    controller = Controller(net)
    fs = Flowserver(
        controller, RoutingTable(topo), FlowserverConfig(poll_mode="adaptive")
    )
    assert type(fs.collector) is FlowStatsCollector
    assert isinstance(fs.collector.schedule, AdaptiveSchedule)
    fs.close()


# ---------------------------------------------------------------------------
# Collector behaviour
# ---------------------------------------------------------------------------


def test_measured_bandwidth_matches_fixed_collector():
    loop, net, table, ctl, state, collector = build_env()
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e6)
    ctl.start_transfer("f", path, GB)
    loop.run(until=2.5)
    assert state.flows["f"].bw_bps == pytest.approx(1e9, rel=1e-6)
    assert collector.measurements_applied >= 1


def test_monitoring_point_is_on_path_and_prefers_source_edge():
    loop, net, table, ctl, state, collector = build_env()
    path = table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0]
    track(state, "f", path, GB, bw=1e9)
    ctl.start_transfer("f", path, GB)
    loop.run(until=1.5)
    point = collector.schedule.monitoring_point("f")
    path_switches = set()
    for lid in path.link_ids:
        link = net.topology.links[lid]
        path_switches.update(n for n in (link.src, link.dst)
                             if n in net.topology.switches)
    assert point in path_switches
    # unloaded fabric: the source edge switch (degraded-mode trust anchor)
    assert point == net.topology.links[path.link_ids[0]].dst


def test_assignment_spreads_across_path_switches():
    loop, net, table, ctl, state, collector = build_env()
    # Many flows between the same pair of racks: same candidate switches.
    for i in range(8):
        src, dst = f"pod0-rack0-h{i % 4}", f"pod1-rack0-h{i % 4}"
        path = table.paths(src, dst)[i % 2]
        track(state, f"f{i}", path, 100 * GB, bw=1e9)
        ctl.start_transfer(f"f{i}", path, 100 * GB)
    loop.run(until=1.5)
    points = {collector.schedule.monitoring_point(f"f{i}") for i in range(8)}
    assert len(points) >= 3  # balanced, not all piled on one switch
    assert max(Counter(collector.schedule._assignment.values()).values()) <= 3


def test_stable_elephant_demotes_to_slow_and_pushes():
    loop, net, table, ctl, state, collector = build_env()
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, 100 * GB, bw=1e9)
    ctl.start_transfer("f", path, 100 * GB)
    loop.run(until=4.5)
    # two consecutive stable measurements in, the flow drops to slow
    assert collector.schedule.cadence_of("f") == CADENCE_SLOW
    msgs_at_demotion = sum(collector.poll_messages.values())
    loop.run(until=20.0)
    # a full-rate elephant crosses the push threshold every check, so the
    # push channel (not polling) carries its freshness
    assert collector.pushes_applied > 10
    assert sum(collector.poll_messages.values()) - msgs_at_demotion <= 6
    # ...and the flow is never unobserved longer than its cadence ceiling
    assert (
        loop.now - collector._previous["f"].timestamp
        <= collector.schedule.cadence_ceiling()
    )


def test_freeze_discipline_preserved_under_adaptive_polling():
    loop, net, table, ctl, state, collector = build_env()
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e9)
    state.set_bw("f", 1e9, now=0.0)  # freeze until t=8
    ctl.start_transfer("f", path, GB)
    # competitor halves the flow's true rate right away
    other = table.paths("pod0-rack0-h0", "pod0-rack0-h2")[0]
    net.start_flow("competitor", other, 100 * GB)
    loop.run(until=7.0)
    # frozen: the analytic 1 Gbps estimate must have survived SETBW
    assert state.flows["f"].bw_bps == pytest.approx(1e9)
    assert collector.measurements_suppressed >= 1
    loop.run(until=11.0)
    # freeze expired: the ~500 Mbps measurement must now have landed
    assert state.flows["f"].bw_bps < 0.75e9
    assert collector.measurements_applied >= 1


def test_unseen_expiry_counts_observations_not_ticks():
    loop, net, table, ctl, state, collector = build_env()
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    # a live elephant at slow cadence and a phantom that never starts
    track(state, "live", path, 100 * GB, bw=1e9)
    ctl.start_transfer("live", path, 100 * GB)
    phantom_path = table.paths("pod0-rack1-h0", "pod0-rack1-h1")[0]
    track(state, "phantom", phantom_path, GB, bw=1e9)
    loop.run(until=30.0)
    # the phantom was looked for expire_unseen_polls times and dropped
    assert "phantom" not in state
    assert collector.flows_expired == 1
    # the slow-cadence elephant saw 30 ticks go by but was observed at
    # every attempt — raw ticks must never count toward expiry
    assert "live" in state
    assert "live" not in collector._unseen_polls


# ---------------------------------------------------------------------------
# Push reconciliation
# ---------------------------------------------------------------------------


def make_push(switch, flow, seq, ts, nbytes):
    """A push message carrying one report."""
    report = CounterPush(
        switch_id=switch, flow_id=flow, seq=seq, timestamp=ts,
        bytes_sent=nbytes, remaining_bits=max(0.0, GB - nbytes * 8.0),
    )
    return CounterPushBatch(switch_id=switch, timestamp=ts, reports=(report,))


def test_duplicate_push_is_dropped():
    loop, net, table, ctl, state, collector = build_env()
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e9)
    p1 = make_push("pod0-rack0", "f", seq=1, ts=1.0, nbytes=1e7)
    collector.on_push(p1)
    applied_after_first = collector.pushes_applied
    bw_after_first = state.flows["f"].bw_bps
    collector.on_push(p1)  # exact redelivery
    collector.on_push(make_push("pod0-rack0", "f", seq=1, ts=2.0, nbytes=2e7))
    assert collector.pushes_applied == applied_after_first
    assert collector.pushes_duplicate == 2
    assert state.flows["f"].bw_bps == bw_after_first


def test_regressed_observation_counts_under_its_own_origin():
    loop, net, table, ctl, state, collector = build_env()
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e9)
    collector.on_push(make_push("pod0-rack0", "f", seq=1, ts=1.0, nbytes=2e7))
    # a poll reply that read the counter before the push did
    collector._observe("f", 1e7, GB, 2.0, origin="poll")
    assert (collector.polls_stale, collector.pushes_stale) == (1, 0)
    # a push reordered behind a fresher report
    collector.on_push(make_push("pod0-rack0", "f", seq=2, ts=3.0, nbytes=1e7))
    assert (collector.polls_stale, collector.pushes_stale) == (1, 1)
    assert collector._previous["f"].bytes_sent == 2e7


def test_push_sequence_window_is_dropped_with_the_flow():
    loop, net, table, ctl, state, collector = build_env()
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e9)
    collector.on_push(make_push("pod0-rack0", "f", seq=1, ts=1.0, nbytes=2e7))
    assert collector._push_seq_seen
    state.remove("f")
    collector.forget("f")
    assert collector._push_seq_seen == {}


def test_push_for_untracked_flow_is_ignored():
    loop, net, table, ctl, state, collector = build_env()
    collector.on_push(make_push("pod0-rack0", "ghost", seq=1, ts=1.0, nbytes=1e7))
    assert collector.pushes_ignored == 1
    assert collector.pushes_applied == 0
    assert collector._push_seq_seen == {}  # no window for a flow not tracked


@settings(max_examples=30, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.booleans(),                      # push (True) or poll (False)
            st.integers(0, 200_000_000),        # counter advance, bytes
            st.booleans(),                      # redeliver this push later
        ),
        min_size=1,
        max_size=25,
    )
)
def test_push_poll_reconciliation_is_idempotent(steps):
    """A pushed counter delta is never applied twice.

    Interleaves polls and pushes (with duplicate and reordered
    redeliveries) over one flow and checks the telescoping invariant:
    the total bandwidth-seconds applied through UPDATEBW equals the
    counter advance exactly once — any double-application would break
    the telescope.
    """
    loop, net, table, ctl, state, collector = build_env()
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, 1e15, bw=1e9)

    applied_bits = 0.0
    original = state.update_bw_from_stats

    def spying_update(flow_id, bw_bps, now):
        nonlocal applied_bits
        record = collector._previous.get(flow_id)
        applied = original(flow_id, bw_bps, now)
        if applied and record is not None:
            applied_bits += bw_bps * (now - record.timestamp)
        return applied

    state.update_bw_from_stats = spying_update

    counter = 0.0
    seq = 0
    clock = 0.0
    first_report = None
    delivered = []
    for is_push, advance, redeliver in steps:
        counter += advance
        clock += 1.0
        if is_push:
            seq += 1
            push = make_push("pod0-rack0", "f", seq=seq, ts=clock, nbytes=counter)
            collector.on_push(push)
            delivered.append(push)
            if redeliver and delivered:
                collector.on_push(delivered[len(delivered) // 2])  # stale seq
        else:
            collector._observe("f", counter, 1e15, clock, origin="poll")
        if first_report is None:
            first_report = counter
    assert applied_bits == pytest.approx(
        (counter - first_report) * 8.0, rel=1e-9, abs=1e-6
    )
    record = collector._previous["f"]
    assert record.bytes_sent == pytest.approx(counter)


@settings(max_examples=15, deadline=None)
@given(
    flows=st.lists(
        st.tuples(
            st.integers(0, 5),     # start tick offset
            st.floats(5.0, 400.0), # size in Gb
        ),
        min_size=1,
        max_size=5,
    ),
    slow_factor=st.sampled_from([2.0, 4.0, 8.0]),
)
def test_no_flow_unobserved_past_cadence_ceiling(flows, slow_factor):
    """Every tracked flow gets attention within the cadence ceiling.

    "Attention" is an observation *attempt*: a successful counter read or
    an explicit miss that advances unseen-flow expiry — which is why
    expiry must count observations, not raw ticks.  Holds across cadence
    demotions, pushes, completions and expiry.
    """
    loop, net, table, ctl, state, collector = build_env(
        config=AdaptiveStatsConfig(slow_factor=slow_factor)
    )
    attention = {}

    observe, note_miss = collector._observe, collector._note_unobserved

    def spy_observe(flow_id, *args, **kwargs):
        attention.setdefault(flow_id, []).append(loop.now)
        return observe(flow_id, *args, **kwargs)

    def spy_miss(flow_id, now):
        attention.setdefault(flow_id, []).append(now)
        return note_miss(flow_id, now)

    collector._observe = spy_observe
    collector._note_unobserved = spy_miss

    hosts = [("pod0-rack0-h0", "pod0-rack0-h1"),
             ("pod0-rack1-h0", "pod1-rack0-h0"),
             ("pod1-rack1-h0", "pod2-rack0-h0"),
             ("pod2-rack1-h0", "pod3-rack0-h0"),
             ("pod3-rack1-h0", "pod0-rack2-h0")]

    def launch(i, path, size_bits):
        track(state, f"f{i}", path, size_bits, bw=1e9)
        ctl.start_transfer(f"f{i}", path, size_bits)
        collector.start()

    for i, (offset, size_gb) in enumerate(flows):
        src, dst = hosts[i % len(hosts)]
        path = table.paths(src, dst)[0]
        loop.call_at(float(offset), launch, i, path, size_gb * 1e9)

    loop.run(until=40.0)

    ceiling = collector.schedule.cadence_ceiling() + 1e-9
    for flow_id, times in attention.items():
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert not gaps or max(gaps) <= ceiling, (
            f"{flow_id} unobserved for {max(gaps):.1f}s "
            f"(ceiling {ceiling:.1f}s)"
        )


# ---------------------------------------------------------------------------
# The differential harness (fixed vs adaptive, 64 edge switches)
# ---------------------------------------------------------------------------


def run_differential(poll_mode, topo, workload, seed):
    harvested = {}

    def grab(env):
        collector = env.flowserver.collector
        harvested.update(
            poll_messages=sum(collector.poll_messages.values()),
            poll_bytes=sum(collector.poll_bytes.values()),
            push_messages=sum(collector.push_messages.values()),
            push_seq_windows=dict(collector._push_seq_seen),
            measurements_applied=collector.measurements_applied,
            measurements_suppressed=collector.measurements_suppressed,
            flows_expired=collector.flows_expired,
        )

    records = run_scheme_on_workload(
        "mayflower",
        workload,
        SchemeRunConfig(topology=topo,
                        flowserver=FlowserverConfig(poll_mode=poll_mode)),
        seed=seed,
        on_env=grab,
    )
    return records, harvested


def test_differential_selection_quality_and_message_drop():
    """The adaptive collector must not change what Mayflower decides.

    Same seeded workload, fixed vs adaptive, at 64 edge switches: every
    job's replica choice matches, the fig. 4 metric (mean job completion
    time) is within 2%, the freeze discipline fires identically — and
    the controller poll channel shrinks by at least 10x.
    """
    topo = three_tier(pods=8, racks_per_pod=8, hosts_per_rack=2)
    edge_count = sum(
        1 for s in topo.switches.values() if s.tier.name == "EDGE"
    )
    assert edge_count >= 64
    workload = generate_workload(
        topo, WorkloadConfig(num_files=40, num_jobs=60), seed=11
    )

    fixed_records, fixed_stats = run_differential("fixed", topo, workload, 11)
    adaptive_records, adaptive_stats = run_differential(
        "adaptive", topo, workload, 11
    )

    # Selection decisions: identical replica choices, job for job.
    assert len(fixed_records) == len(adaptive_records) == 60
    mismatched = [
        (f.job_id, f.replica_choices, a.replica_choices)
        for f, a in zip(fixed_records, adaptive_records)
        if f.replica_choices != a.replica_choices
    ]
    assert not mismatched

    # fig. 4 metric within tolerance (here: exactly reproduced).
    fixed_mean = sum(r.duration for r in fixed_records) / len(fixed_records)
    adaptive_mean = sum(r.duration for r in adaptive_records) / len(
        adaptive_records
    )
    assert adaptive_mean == pytest.approx(fixed_mean, rel=0.02)

    # Freeze discipline preserved: adaptive applies no measurement the
    # fixed path would have suppressed, and nothing is falsely expired.
    assert adaptive_stats["measurements_applied"] == pytest.approx(
        fixed_stats["measurements_applied"], abs=2
    )
    assert adaptive_stats["flows_expired"] == fixed_stats["flows_expired"] == 0
    assert adaptive_stats["measurements_suppressed"] > 0

    # The headline: >= 10x fewer poll messages at 64+ switches, and the
    # push channel does not silently eat the savings.
    assert fixed_stats["poll_messages"] >= 10 * adaptive_stats["poll_messages"]
    total_adaptive = (
        adaptive_stats["poll_messages"] + adaptive_stats["push_messages"]
    )
    assert fixed_stats["poll_messages"] >= 4 * total_adaptive
    assert fixed_stats["poll_bytes"] >= 5 * adaptive_stats["poll_bytes"]

    # Every flow drained, so every push sequence window went with it.
    assert adaptive_stats["push_messages"] > 0
    assert adaptive_stats["push_seq_windows"] == {}


def test_default_poll_mode_is_fixed():
    """Default configs drive the collector on the paper's schedule,
    keeping default-path fingerprints intact."""
    assert FlowserverConfig().poll_mode == "fixed"
    topo = three_tier()
    loop = EventLoop()
    controller = Controller(FlowNetwork(loop, topo))
    fs = Flowserver(controller, RoutingTable(topo))
    assert type(fs.collector) is FlowStatsCollector
    assert type(fs.collector.schedule) is FixedSchedule
    fs.close()
