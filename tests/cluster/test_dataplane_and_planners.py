"""Unit tests for the cluster data plane and read planners."""

import random

import pytest

from repro.baselines.selectors import NearestReplicaSelector
from repro.cluster.dataplane import SimulatedDataPlane
from repro.cluster.planners import SchemeReadPlanner, _split_bytes
from repro.core import Flowserver
from repro.fs.chunks import FileMetadata
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.rpc import RpcFabric
from repro.sdn import Controller
from repro.sim import EventLoop, Process

MB = 1024 * 1024


@pytest.fixture()
def env():
    topo = three_tier(pods=2, racks_per_pod=2, hosts_per_rack=2)
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    routing = RoutingTable(topo)
    controller = Controller(net)
    fabric = RpcFabric(loop)
    dataplane = SimulatedDataPlane(loop, controller, routing, ecmp_salt=1)
    return topo, loop, net, routing, controller, fabric, dataplane


def run(loop, gen):
    proc = Process(loop, gen)
    loop.run()
    if proc.exception:
        raise proc.exception
    return proc.result


def meta(replicas=("pod0-rack0-h1", "pod0-rack1-h0", "pod1-rack0-h0")):
    return FileMetadata(
        name="f", file_id="id", size_bytes=100 * MB,
        chunk_bytes=256 * MB, replicas=tuple(replicas),
    )


class TestDataPlane:
    def test_remote_transfer_takes_network_time(self, env):
        topo, loop, net, routing, controller, fabric, dp = env

        def body():
            start = loop.now
            yield from dp.transfer("pod0-rack0-h0", "pod0-rack0-h1", 125 * 1000 * 1000)
            return loop.now - start

        duration = run(loop, body())
        assert duration == pytest.approx(1.0)  # 1e9 bits at 1 Gbps
        assert dp.transfers_started == 1

    def test_local_transfer_is_instant_by_default(self, env):
        topo, loop, net, routing, controller, fabric, dp = env

        def body():
            start = loop.now
            yield from dp.transfer("pod0-rack0-h0", "pod0-rack0-h0", 10 * MB)
            return loop.now - start

        assert run(loop, body()) == 0.0
        assert dp.local_transfers == 1

    def test_local_transfer_with_storage_rate(self, env):
        topo, loop, net, routing, controller, fabric, _ = env
        dp = SimulatedDataPlane(loop, controller, routing, local_read_bps=8e9)

        def body():
            start = loop.now
            yield from dp.transfer("pod0-rack0-h0", "pod0-rack0-h0", 125 * 1000 * 1000)
            return loop.now - start

        assert run(loop, body()) == pytest.approx(0.125)

    def test_zero_size_completes_immediately(self, env):
        topo, loop, net, routing, controller, fabric, dp = env

        def body():
            yield from dp.transfer("pod0-rack0-h0", "pod0-rack0-h1", 0)
            return "done"

        assert run(loop, body()) == "done"
        assert dp.transfers_started == 0

    def test_negative_size_rejected(self, env):
        topo, loop, net, routing, controller, fabric, dp = env
        with pytest.raises(ValueError):
            next(dp.transfer("a", "b", -1))

    def test_prearranged_path_is_used(self, env):
        topo, loop, net, routing, controller, fabric, dp = env
        path = routing.paths("pod0-rack0-h0", "pod1-rack0-h0")[3]

        def body():
            yield from dp.transfer(
                "pod0-rack0-h0", "pod1-rack0-h0", 10 * MB,
                flow_id="pre", path=path,
            )

        flows_seen = []
        orig = controller.start_transfer

        def spy(flow_id, p, size, **kw):
            flows_seen.append((flow_id, p.link_ids))
            return orig(flow_id, p, size, **kw)

        controller.start_transfer = spy
        run(loop, body())
        assert flows_seen == [("pre", path.link_ids)]


class TestSelectorReadPlanner:
    """SchemeReadPlanner with a local replica selector (nearest-* rows)."""

    def test_single_transfer_covering_size(self, env):
        topo, loop, net, routing, controller, fabric, dp = env
        planner = SchemeReadPlanner(
            NearestReplicaSelector(topo, random.Random(1))
        )

        def body():
            return (
                yield from planner.plan(
                    "pod0-rack0-h0", meta(), list(meta().replicas), 100 * MB
                )
            )

        transfers = run(loop, body())
        assert len(transfers) == 1
        assert transfers[0].size_bytes == 100 * MB
        assert transfers[0].replica == "pod0-rack0-h1"  # same rack
        assert transfers[0].path is None  # ECMP at transfer time

    def test_flowserver_endpoint_requires_fabric(self, env):
        topo, *_ = env
        with pytest.raises(ValueError):
            SchemeReadPlanner(
                NearestReplicaSelector(topo, random.Random(1)),
                fabric=None,
                flowserver_endpoint="@controller",
            )

    def test_path_mode_returns_prearranged_path(self, env):
        topo, loop, net, routing, controller, fabric, dp = env
        flowserver = Flowserver(controller, routing)
        fabric.register("@controller", "flowserver", flowserver)
        planner = SchemeReadPlanner(
            NearestReplicaSelector(topo, random.Random(1)),
            fabric=fabric,
            flowserver_endpoint="@controller",
        )

        def body():
            return (
                yield from planner.plan(
                    "pod0-rack0-h0", meta(), list(meta().replicas), 100 * MB
                )
            )

        transfers = run(loop, body())
        assert len(transfers) == 1
        assert transfers[0].path is not None
        assert transfers[0].flow_id is not None
        flowserver.close()


class TestFlowserverReadPlanner:
    """SchemeReadPlanner with the Flowserver choosing jointly (mayflower)."""

    def test_split_read_sizes_sum_exactly(self, env):
        topo, loop, net, routing, controller, fabric, dp = env
        flowserver = Flowserver(controller, routing)
        fabric.register("@controller", "flowserver", flowserver)
        planner = SchemeReadPlanner(None, fabric, "@controller")
        # replicas in two different pods: cross-pod reads split (500 Mbps
        # core uplinks vs the client's 1 Gbps edge)
        replicas = ("pod0-rack1-h1", "pod1-rack0-h0")
        m = meta(replicas)

        def body():
            return (
                yield from planner.plan("pod1-rack1-h0", m, list(replicas), 100 * MB)
            )

        transfers = run(loop, body())
        assert sum(t.size_bytes for t in transfers) == 100 * MB
        for t in transfers:
            assert isinstance(t.size_bytes, int)
        flowserver.close()

    def test_local_read(self, env):
        topo, loop, net, routing, controller, fabric, dp = env
        flowserver = Flowserver(controller, routing)
        fabric.register("@controller", "flowserver", flowserver)
        planner = SchemeReadPlanner(None, fabric, "@controller")
        m = meta()

        def body():
            return (
                yield from planner.plan(
                    "pod0-rack0-h1", m, list(m.replicas), 100 * MB
                )
            )

        transfers = run(loop, body())
        assert len(transfers) == 1
        assert transfers[0].replica == "pod0-rack0-h1"
        assert transfers[0].path is None
        flowserver.close()


class TestSplitBytes:
    def test_exact_sum(self):
        assert sum(_split_bytes(100, [0.3333, 0.6667])) == 100

    def test_single(self):
        assert _split_bytes(7, [1.0]) == [7]

    def test_proportions(self):
        sizes = _split_bytes(1000, [0.25, 0.75])
        assert sizes == [250, 750]
