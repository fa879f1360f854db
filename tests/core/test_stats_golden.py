"""Golden numbers for the paper's polling schedule under a fault storm.

The expected values were recorded with the first fixed-interval
collector and have held through every rewrite of it since.  The storm
fails edge switches while they source flows and opens a
``stats_poll_loss`` window, so the run crosses the unreachable-switch,
monitoring-outage and unseen-flow-expiry branches, each pinned by its
counters.
"""

from repro.cluster.cluster import ClusterConfig
from repro.cluster.experiment import run_cluster_workload
from repro.faults import StormSpec, build_storm
from repro.fs.retry import RetryPolicy
from repro.net.topology import three_tier
from repro.sim import instrument
from repro.sim.randomness import RandomStreams

SEED = 4

GOLDEN = dict(
    polls_completed=22,
    measurements_applied=14,
    measurements_suppressed=204,
    flows_expired=61,
    polls_lost=6,
    poll_errors=11,
    poll_messages=501,
    poll_bytes=47156,
)


def test_fixed_schedule_counters_under_storm_match_recorded_values():
    topology = three_tier()
    assert len(topology.hosts) == 64
    plan = build_storm(
        topology,
        RandomStreams(SEED).faults(),
        StormSpec(
            start=0.5, window=10.0, link_failures=2, switch_failures=3,
            dataserver_crashes=2, stats_poll_outages=1, mean_outage=4.0,
            protected_hosts=[sorted(topology.hosts)[0]],
        ),
    )
    kinds = [event.kind for event in plan.events]
    assert "switch_fail" in kinds and "stats_poll_loss" in kinds

    flowservers = []
    subscription = instrument.subscribe(
        component=lambda kind, component: (
            flowservers.append(component) if kind == "flowserver" else None
        )
    )
    try:
        durations = run_cluster_workload(
            "mayflower",
            num_jobs=60,
            num_files=20,
            seed=SEED,
            config=ClusterConfig(
                scheme="mayflower",
                seed=SEED,
                retry=RetryPolicy(
                    max_attempts=60, base_delay=0.05, multiplier=2.0,
                    max_delay=2.0, jitter=0.5, operation_deadline=None,
                    rpc_timeout=30.0,
                ),
            ),
            fault_plan=plan,
        )
    finally:
        instrument.unsubscribe(subscription)
    assert len(durations) == 60

    (flowserver,) = flowservers
    collector = flowserver.collector
    assert dict(
        polls_completed=collector.polls_completed,
        measurements_applied=collector.measurements_applied,
        measurements_suppressed=collector.measurements_suppressed,
        flows_expired=collector.flows_expired,
        polls_lost=collector.polls_lost,
        poll_errors=collector.poll_errors,
        poll_messages=sum(collector.poll_messages.values()),
        poll_bytes=sum(collector.poll_bytes.values()),
    ) == GOLDEN
    # every outage healed: all 16 edge switches answer again
    assert collector.switch_missed_polls == {
        switch_id: 0 for switch_id in flowserver._controller.edge_switch_ids()
    }
