"""Unit tests for the flow-stats collector."""

import pytest

from repro.core.flow_state import FlowStateTable, TrackedFlow
from repro.core.stats import FlowStatsCollector
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sdn import Controller
from repro.sim import EventLoop

GB = 8e9


@pytest.fixture()
def env():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    controller = Controller(net)
    state = FlowStateTable()
    collector = FlowStatsCollector(loop, controller, state, poll_interval=1.0)
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


def test_measured_bandwidth_from_counter_deltas(env):
    loop, net, table, ctl, state, collector = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    # deliberately wrong initial estimate: 1 Mbps vs true 1 Gbps
    track(state, "f", path, GB, bw=1e6)
    ctl.start_transfer("f", path, GB)
    loop.run(until=2.5)  # two polls: t=1 primes history, t=2 measures
    assert state.flows["f"].bw_bps == pytest.approx(1e9, rel=1e-6)
    assert collector.polls_completed == 2
    assert collector.measurements_applied >= 1


def test_remaining_size_refreshed_from_stats(env):
    loop, net, table, ctl, state, collector = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e9)
    ctl.start_transfer("f", path, GB)
    loop.run(until=2.0)
    # after 2 s at 1 Gbps, 2e9 of 8e9 bits are gone
    assert state.flows["f"].remaining_bits == pytest.approx(6e9, rel=1e-6)


def test_frozen_flow_keeps_estimate(env):
    loop, net, table, ctl, state, collector = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e6)
    # freeze at a deliberate estimate for the whole transfer
    state.set_bw("f", 2e6, now=0.0)  # freeze_until = 8e9/2e6 = 4000 s
    ctl.start_transfer("f", path, GB)
    loop.run(until=3.0)
    assert state.flows["f"].bw_bps == 2e6
    assert collector.measurements_suppressed >= 1


def test_freeze_expiry_lets_measurements_in(env):
    loop, net, table, ctl, state, collector = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e9)
    state.set_bw("f", 1e9, now=0.0)  # freeze until t=8
    ctl.start_transfer("f", path, GB)
    # slow the flow down right away with a competitor on the same uplink
    other = table.paths("pod0-rack0-h0", "pod0-rack0-h2")[0]
    net.start_flow("competitor", other, 100 * GB)
    loop.run(until=7.5)
    assert state.flows["f"].bw_bps == 1e9  # still frozen
    loop.run(until=10.0)
    # f still active (runs at 500 Mbps), freeze expired at 8 -> measured
    assert state.flows["f"].bw_bps == pytest.approx(0.5e9, rel=1e-3)


def test_regressed_counter_reading_is_stale_and_changes_nothing(env, monkeypatch):
    """A polled counter below the flow's last reading cannot be a later
    sample of a cumulative counter: it must leave the remaining size, the
    UPDATEBW estimate and the delta baseline untouched."""
    loop, net, table, ctl, state, collector = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e9)
    ctl.start_transfer("f", path, GB)
    loop.run(until=2.5)  # polls at t=1 and t=2 set the baseline
    before = (state.flows["f"].remaining_bits, state.flows["f"].bw_bps)
    record = collector._previous["f"]
    counts = (collector.measurements_applied, collector.measurements_suppressed)

    real_query = ctl.query_flow_stats

    def regressed(switch_id):
        reply = real_query(switch_id)
        flows = tuple(
            stat._replace(
                bytes_sent=record.bytes_sent / 2,
                remaining_bits=GB - record.bytes_sent * 4,
            ) if stat.flow_id == "f" else stat
            for stat in reply.flows
        )
        return reply._replace(flows=flows)

    monkeypatch.setattr(ctl, "query_flow_stats", regressed)
    collector.poll_once()
    assert collector.polls_stale == 1
    assert (state.flows["f"].remaining_bits, state.flows["f"].bw_bps) == before
    assert collector._previous["f"] is record
    assert (
        collector.measurements_applied, collector.measurements_suppressed
    ) == counts


def test_untracked_flows_ignored(env):
    loop, net, table, ctl, state, collector = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    ctl.start_transfer("alien", path, GB)
    loop.run(until=3.0)
    assert len(state) == 0


def test_forget_clears_history(env):
    loop, net, table, ctl, state, collector = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e9)
    ctl.start_transfer("f", path, GB)
    loop.run(until=2.0)
    state.remove("f")
    collector.forget("f")
    assert "f" not in collector._previous


def test_stale_history_pruned_after_flow_gone(env):
    loop, net, table, ctl, state, collector = env
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e9)
    ctl.start_transfer("f", path, GB)
    loop.run(until=2.0)
    assert "f" in collector._previous
    state.remove("f")  # flowserver dropped it (FlowRemoved)
    net.cancel_flow("f")
    loop.run(until=4.0)
    assert "f" not in collector._previous


def test_stop_start(env):
    loop, net, table, ctl, state, collector = env
    collector.stop()
    loop.run(until=5.0)
    assert collector.polls_completed == 0
    collector.start()
    loop.run(until=10.0)
    # with nothing tracked the collector polls once and goes idle
    assert collector.polls_completed == 1


def test_collector_idles_without_tracked_flows_and_wakes_on_demand(env):
    loop, net, table, ctl, state, collector = env
    loop.run()  # drains: the collector stops itself after one empty poll
    assert collector.polls_completed == 1
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "f", path, GB, bw=1e9)
    ctl.start_transfer("f", path, GB)
    collector.start()
    loop.run(until=loop.now + 4.0)
    assert collector.polls_completed > 1


def test_tracked_flow_never_seen_in_stats_expires(env):
    """A flow registered with the Flowserver whose transfer never starts
    (e.g. the dataserver died) is dropped after expire_unseen_polls."""
    loop, net, table, ctl, state, collector = env
    collector.expire_unseen_polls = 3
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "phantom", path, GB, bw=1e9)
    # keep the collector awake with a real, tracked flow
    other = table.paths("pod0-rack1-h0", "pod0-rack1-h1")[0]
    track(state, "real", other, 100 * GB, bw=1e9)
    ctl.start_transfer("real", other, 100 * GB)
    loop.run(until=2.5)
    assert "phantom" in state  # 2 misses so far
    loop.run(until=4.0)
    assert "phantom" not in state
    assert "real" in state
    assert collector.flows_expired == 1


def test_expiry_disabled_keeps_flows(env):
    loop, net, table, ctl, state, collector = env
    collector.expire_unseen_polls = 0
    path = table.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
    track(state, "phantom", path, GB, bw=1e9)
    other = table.paths("pod0-rack1-h0", "pod0-rack1-h1")[0]
    track(state, "real", other, 100 * GB, bw=1e9)
    ctl.start_transfer("real", other, 100 * GB)
    loop.run(until=30.0)
    assert "phantom" in state


def test_invalid_interval_rejected(env):
    loop, net, _, ctl, state, _ = env
    with pytest.raises(ValueError):
        FlowStatsCollector(loop, ctl, state, poll_interval=0)
