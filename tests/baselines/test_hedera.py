"""Unit tests for flow rerouting and the Hedera-style scheduler."""

import pytest

from repro.baselines.hedera import HederaScheduler
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sdn import Controller
from repro.sim import EventLoop

GB = 8e9


@pytest.fixture()
def env():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    routing = RoutingTable(topo)
    controller = Controller(net)
    return topo, loop, net, routing, controller


class TestReroute:
    def test_reroute_preserves_progress(self, env):
        topo, loop, net, routing, ctl = env
        paths = routing.paths("pod0-rack0-h0", "pod0-rack1-h0")
        done = []
        ctl.start_transfer("f", paths[0], GB, on_complete=lambda f: done.append(loop.now))
        loop.run(until=2.0)  # 2 s at 1 Gbps: 2e9 bits moved
        ctl.reroute_transfer("f", paths[1])
        flow = net.active_flows["f"]
        assert flow.remaining_bits == pytest.approx(6e9)
        assert flow.path.link_ids == paths[1].link_ids
        loop.run()
        assert done == [pytest.approx(8.0)]

    def test_reroute_updates_flow_tables(self, env):
        topo, loop, net, routing, ctl = env
        paths = routing.paths("pod0-rack0-h0", "pod0-rack1-h0")
        ctl.start_transfer("f", paths[0], GB)
        ctl.reroute_transfer("f", paths[1])
        assert ctl.verify_tables_consistent() == []

    def test_reroute_requires_same_endpoints(self, env):
        topo, loop, net, routing, ctl = env
        paths = routing.paths("pod0-rack0-h0", "pod0-rack1-h0")
        other = routing.paths("pod0-rack0-h0", "pod0-rack2-h0")[0]
        ctl.start_transfer("f", paths[0], GB)
        with pytest.raises(ValueError):
            ctl.reroute_transfer("f", other)

    def test_reroute_unknown_flow(self, env):
        topo, loop, net, routing, ctl = env
        with pytest.raises(KeyError):
            ctl.reroute_transfer("ghost", routing.paths("pod0-rack0-h0", "pod0-rack1-h0")[0])

    def test_reroute_releases_contention(self, env):
        """Two elephants hashed onto one uplink; moving one doubles rates."""
        topo, loop, net, routing, ctl = env
        p_a = routing.paths("pod0-rack0-h0", "pod0-rack1-h0")
        p_b = routing.paths("pod0-rack0-h1", "pod0-rack1-h1")
        # force both onto the same aggregation switch (collision)
        ctl.start_transfer("a", p_a[0], 10 * GB)
        ctl.start_transfer("b", p_b[0], 10 * GB)
        assert net.ground_truth_rates()["a"] == pytest.approx(0.5e9)
        ctl.reroute_transfer("b", p_b[1])
        assert net.ground_truth_rates()["a"] == pytest.approx(1e9)
        assert net.ground_truth_rates()["b"] == pytest.approx(1e9)


class TestHederaScheduler:
    def test_separates_colliding_elephants(self, env):
        topo, loop, net, routing, ctl = env
        scheduler = HederaScheduler(loop, ctl, routing, interval=1.0, auto_start=False)
        p_a = routing.paths("pod0-rack0-h0", "pod0-rack1-h0")
        p_b = routing.paths("pod0-rack0-h1", "pod0-rack1-h1")
        ctl.start_transfer("a", p_a[0], 10 * GB)
        ctl.start_transfer("b", p_b[0], 10 * GB)
        moved = scheduler.schedule_round()
        assert moved >= 1
        rates = net.ground_truth_rates()
        assert rates["a"] == pytest.approx(1e9)
        assert rates["b"] == pytest.approx(1e9)

    def test_mice_are_not_touched(self, env):
        topo, loop, net, routing, ctl = env
        scheduler = HederaScheduler(
            loop, ctl, routing, interval=1.0,
            elephant_threshold_bits=1e9, auto_start=False,
        )
        p_a = routing.paths("pod0-rack0-h0", "pod0-rack1-h0")
        ctl.start_transfer("mouse1", p_a[0], 1e6)
        ctl.start_transfer("mouse2", p_a[0], 1e6)
        assert scheduler.schedule_round() == 0

    def test_stable_when_no_better_path(self, env):
        topo, loop, net, routing, ctl = env
        scheduler = HederaScheduler(loop, ctl, routing, interval=1.0, auto_start=False)
        # single-path same-rack elephant: nothing to move
        path = routing.paths("pod0-rack0-h0", "pod0-rack0-h1")[0]
        ctl.start_transfer("f", path, 10 * GB)
        assert scheduler.schedule_round() == 0

    def test_periodic_operation(self, env):
        topo, loop, net, routing, ctl = env
        scheduler = HederaScheduler(loop, ctl, routing, interval=2.0)
        p_a = routing.paths("pod0-rack0-h0", "pod0-rack1-h0")
        p_b = routing.paths("pod0-rack0-h1", "pod0-rack1-h1")
        ctl.start_transfer("a", p_a[0], 10 * GB)
        ctl.start_transfer("b", p_b[0], 10 * GB)
        loop.run(until=5.0)
        scheduler.stop()
        assert scheduler.rounds >= 2
        assert scheduler.reroutes >= 1

    def test_invalid_interval(self, env):
        topo, loop, net, routing, ctl = env
        with pytest.raises(ValueError):
            HederaScheduler(loop, ctl, routing, interval=0)


def test_nearest_hedera_scheme_runs_end_to_end():
    from repro.experiments.runner import run_scheme_on_workload
    from repro.workload import LocalityDistribution, WorkloadConfig, generate_workload

    topo = three_tier()
    workload = generate_workload(
        topo,
        WorkloadConfig(num_files=20, num_jobs=40, arrival_rate_per_server=0.07,
                       locality=LocalityDistribution(0.2, 0.3, 0.5)),
        seed=9,
    )
    records = run_scheme_on_workload("nearest-hedera", workload, seed=9)
    assert len(records) == 40
