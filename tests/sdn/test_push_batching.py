"""Coalesced counter pushes: many crossings, one channel message.

A push message is always a ``CounterPushBatch`` of one or more
``CounterPush`` reports.  When several registered flows on the same
switch cross their delta thresholds within one check interval, the
switch sends them in a single message instead of one each.  The batch
costs one message (header once, ``PUSH_REPORT_BYTES`` per extra report),
and the collector reconciles each report idempotently — a redelivered
batch re-applies nothing and accounts no message.
"""

from repro.core.adaptive_stats import AdaptiveSchedule, AdaptiveStatsConfig
from repro.core.flow_state import FlowStateTable, TrackedFlow
from repro.core.stats import FlowStatsCollector
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sdn import Controller, CounterPush, CounterPushBatch
from repro.sdn.push import (
    PUSH_MESSAGE_BYTES,
    PUSH_REPORT_BYTES,
    DeltaPushService,
)
from repro.sim import EventLoop

GB = 8e9


def build_env():
    topo = three_tier(pods=2, racks_per_pod=2, hosts_per_rack=2)
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    controller = Controller(net)
    return loop, net, table, controller


def start_two_flows_on_one_switch(table, controller):
    """Two full-rate flows sharing the pod0-rack0 edge switch."""
    p1 = table.paths("pod0-rack0-h0", "pod0-rack1-h0")[0]
    p2 = table.paths("pod0-rack0-h1", "pod0-rack1-h1")[0]
    controller.start_transfer("fa", p1, 100 * GB)
    controller.start_transfer("fb", p2, 100 * GB)
    return "pod0-rack0"


# ---------------------------------------------------------------------------
# Service-level coalescing
# ---------------------------------------------------------------------------


def test_same_interval_crossings_coalesce_into_one_batch():
    loop, net, table, controller = build_env()
    received = []
    service = DeltaPushService(
        loop, controller, sink=received.append, check_interval=1.0
    )
    switch = start_two_flows_on_one_switch(table, controller)
    service.register(switch, "fa", threshold_bytes=1e6)
    service.register(switch, "fb", threshold_bytes=1e6)
    loop.run(until=1.5)
    assert len(received) == 1
    batch = received[0]
    assert isinstance(batch, CounterPushBatch)
    assert batch.switch_id == switch
    assert sorted(r.flow_id for r in batch.reports) == ["fa", "fb"]
    # one message on the channel, one report coalesced away
    assert service.pushes_sent == 1
    assert service.batches_sent == 1
    assert service.reports_coalesced == 1
    service.stop()


def test_single_crossing_is_a_batch_of_one():
    loop, net, table, controller = build_env()
    received = []
    service = DeltaPushService(
        loop, controller, sink=received.append, check_interval=1.0
    )
    switch = start_two_flows_on_one_switch(table, controller)
    # only one flow is subscribed, so only one report can fire
    service.register(switch, "fa", threshold_bytes=1e6)
    loop.run(until=1.5)
    assert len(received) == 1
    assert isinstance(received[0], CounterPushBatch)
    assert [r.flow_id for r in received[0].reports] == ["fa"]
    assert service.pushes_sent == 1
    assert service.batches_sent == 0  # nothing was coalesced
    service.stop()


def test_coalescing_can_be_disabled():
    loop, net, table, controller = build_env()
    received = []
    service = DeltaPushService(
        loop, controller, sink=received.append, check_interval=1.0,
        coalesce=False,
    )
    switch = start_two_flows_on_one_switch(table, controller)
    service.register(switch, "fa", threshold_bytes=1e6)
    service.register(switch, "fb", threshold_bytes=1e6)
    loop.run(until=1.5)
    assert len(received) == 2
    assert all(len(p.reports) == 1 for p in received)
    assert service.pushes_sent == 2
    assert service.batches_sent == 0
    service.stop()


def test_suppressed_batch_counts_every_lost_report():
    loop, net, table, controller = build_env()
    received = []
    service = DeltaPushService(
        loop, controller, sink=received.append, check_interval=1.0
    )
    switch = start_two_flows_on_one_switch(table, controller)
    service.register(switch, "fa", threshold_bytes=1e6)
    service.register(switch, "fb", threshold_bytes=1e6)
    service.suppress = True
    loop.run(until=1.5)
    assert received == []
    assert service.pushes_lost == 2
    service.stop()


# ---------------------------------------------------------------------------
# Collector-side reconciliation and message accounting
# ---------------------------------------------------------------------------


def make_push(switch, flow, seq, ts, nbytes):
    return CounterPush(
        switch_id=switch, flow_id=flow, seq=seq, timestamp=ts,
        bytes_sent=nbytes, remaining_bits=max(0.0, GB - nbytes * 8.0),
    )


def collector_env():
    loop, net, table, controller = build_env()
    state = FlowStateTable()
    collector = FlowStatsCollector(
        loop, controller, state, poll_interval=1.0,
        schedule=AdaptiveSchedule(),
    )
    for fid, src, dst in (
        ("fa", "pod0-rack0-h0", "pod0-rack1-h0"),
        ("fb", "pod0-rack0-h1", "pod0-rack1-h1"),
    ):
        path = table.paths(src, dst)[0]
        state.add(TrackedFlow(
            flow_id=fid, path_link_ids=path.link_ids,
            size_bits=GB, remaining_bits=GB, bw_bps=1e9,
        ))
    return loop, state, collector


def single(report):
    return CounterPushBatch(
        switch_id=report.switch_id, timestamp=report.timestamp,
        reports=(report,),
    )


def test_batch_of_one_costs_one_push_message():
    loop, state, collector = collector_env()
    collector.on_push(
        single(make_push("pod0-rack0", "fa", seq=1, ts=1.0, nbytes=2e7))
    )
    assert collector.pushes_applied == 1
    assert collector.push_messages["pod0-rack0"] == 1
    assert collector.push_bytes["pod0-rack0"] == PUSH_MESSAGE_BYTES


def test_batch_counts_one_message_with_marginal_report_bytes():
    loop, state, collector = collector_env()
    batch = CounterPushBatch(
        switch_id="pod0-rack0", timestamp=1.0,
        reports=(
            make_push("pod0-rack0", "fa", seq=1, ts=1.0, nbytes=2e7),
            make_push("pod0-rack0", "fb", seq=1, ts=1.0, nbytes=3e7),
        ),
    )
    collector.on_push(batch)
    assert collector.pushes_applied == 2
    assert collector.push_messages["pod0-rack0"] == 1
    assert collector.push_bytes["pod0-rack0"] == (
        PUSH_MESSAGE_BYTES + PUSH_REPORT_BYTES
    )


def test_redelivered_batch_applies_nothing_and_accounts_no_message():
    loop, state, collector = collector_env()
    batch = CounterPushBatch(
        switch_id="pod0-rack0", timestamp=1.0,
        reports=(
            make_push("pod0-rack0", "fa", seq=1, ts=1.0, nbytes=2e7),
            make_push("pod0-rack0", "fb", seq=1, ts=1.0, nbytes=3e7),
        ),
    )
    collector.on_push(batch)
    collector.on_push(batch)  # exact redelivery
    assert collector.pushes_applied == 2
    assert collector.pushes_duplicate == 2
    assert collector.push_messages["pod0-rack0"] == 1


def test_partially_fresh_batch_applies_only_new_reports():
    loop, state, collector = collector_env()
    collector.on_push(
        single(make_push("pod0-rack0", "fa", seq=1, ts=1.0, nbytes=2e7))
    )
    batch = CounterPushBatch(
        switch_id="pod0-rack0", timestamp=2.0,
        reports=(
            make_push("pod0-rack0", "fa", seq=1, ts=1.0, nbytes=2e7),  # dup
            make_push("pod0-rack0", "fb", seq=1, ts=2.0, nbytes=3e7),  # new
        ),
    )
    collector.on_push(batch)
    assert collector.pushes_applied == 2
    assert collector.pushes_duplicate == 1
    # the fresh half still costs a message
    assert collector.push_messages["pod0-rack0"] == 2


def test_coalescing_reduces_push_message_count_end_to_end():
    """The satellite's contract: same crossings, fewer channel messages."""
    def run(coalesce):
        loop, net, table, controller = build_env()
        state = FlowStateTable()
        # polls quiesced: pushes carry the freshness, so every check
        # interval both flows cross together and coalescing is visible
        collector = FlowStatsCollector(
            loop, controller, state, poll_interval=60.0,
            schedule=AdaptiveSchedule(
                AdaptiveStatsConfig(push_check_interval=1.0)
            ),
        )
        push_service = collector.schedule.push
        push_service.coalesce = coalesce
        paths = [
            table.paths("pod0-rack0-h0", "pod0-rack1-h0")[0],
            table.paths("pod0-rack0-h1", "pod0-rack1-h1")[0],
        ]
        for i, path in enumerate(paths):
            fid = f"f{i}"
            state.add(TrackedFlow(
                flow_id=fid, path_link_ids=path.link_ids,
                size_bits=100 * GB, remaining_bits=100 * GB, bw_bps=1e9,
            ))
            controller.start_transfer(fid, path, 100 * GB)
            push_service.register("pod0-rack0", fid, threshold_bytes=1e6)
        loop.run(until=10.0)
        collector.stop()
        return (
            sum(collector.push_messages.values()),
            collector.pushes_applied,
        )

    merged_msgs, merged_applied = run(coalesce=True)
    split_msgs, split_applied = run(coalesce=False)
    assert merged_applied == split_applied  # same information delivered
    assert merged_msgs < split_msgs  # in strictly fewer messages
    assert merged_msgs <= split_msgs / 2 + 1  # two flows -> about half
