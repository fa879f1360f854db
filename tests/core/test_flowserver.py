"""Integration tests for the Flowserver service over a live simulated network."""

import pytest

import repro.telemetry as telemetry
from repro.core import Flowserver, FlowserverConfig
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sdn import Controller
from repro.sim import EventLoop

MB = 8e6
GB = 8e9


def build_env(config=None):
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    routing = RoutingTable(topo)
    controller = Controller(net)
    flowserver = Flowserver(controller, routing, config)
    return loop, net, routing, controller, flowserver


def start_assignments(controller, result, on_complete=None):
    for a in result.assignments:
        if a.path is not None:
            controller.start_transfer(
                a.flow_id, a.path, a.size_bits, on_complete=on_complete
            )


def test_local_read_requires_no_flow():
    loop, net, routing, ctl, fs = build_env()
    result = fs.select(
        "pod0-rack0-h0", ["pod0-rack0-h0", "pod1-rack0-h0"], 256 * MB
    )
    assert result.is_local
    assert result.assignments[0].flow_id is None
    assert fs.local_reads == 1
    assert fs.tracked_flow_count() == 0


def test_remote_read_selects_and_registers_flow():
    config = FlowserverConfig(enable_multi_replica=False)
    loop, net, routing, ctl, fs = build_env(config)
    result = fs.select("pod0-rack0-h0", ["pod0-rack0-h1"], 256 * MB)
    (a,) = result.assignments
    assert a.replica == "pod0-rack0-h1"
    assert a.path is not None
    assert a.flow_id in fs.state.flows
    assert a.est_bw_bps == pytest.approx(1e9)


def test_flow_state_cleared_on_completion():
    config = FlowserverConfig(enable_multi_replica=False)
    loop, net, routing, ctl, fs = build_env(config)
    result = fs.select("pod0-rack0-h0", ["pod0-rack0-h1"], 256 * MB)
    start_assignments(ctl, result)
    assert fs.tracked_flow_count() == 1
    loop.run()
    assert fs.tracked_flow_count() == 0


def test_avoids_congested_replica():
    """Client equidistant from two replicas; one replica's uplink is busy."""
    config = FlowserverConfig(enable_multi_replica=False)
    loop, net, routing, ctl, fs = build_env(config)
    client = "pod0-rack0-h0"
    busy_replica = "pod0-rack1-h0"
    idle_replica = "pod0-rack2-h0"
    # saturate the busy replica's edge uplink with 3 registered flows
    for i, dst in enumerate(["pod0-rack3-h0", "pod0-rack3-h1", "pod0-rack3-h2"]):
        r = fs.select(dst, [busy_replica], 10 * GB)
        start_assignments(ctl, r)
    result = fs.select(client, [busy_replica, idle_replica], 256 * MB)
    assert result.assignments[0].replica == idle_replica


def test_split_rejected_when_single_flow_fills_client_edge():
    """In an idle network a same-pod read already runs at the client's edge
    line rate, so splitting cannot add bandwidth and must be rejected."""
    loop, net, routing, ctl, fs = build_env()
    result = fs.select(
        "pod0-rack0-h0", ["pod0-rack1-h0", "pod1-rack0-h0"], 256 * MB
    )
    assert not result.is_split
    assert result.assignments[0].est_bw_bps == pytest.approx(1e9)
    assert fs.split_reads == 0


def test_split_read_across_two_cross_pod_replicas():
    """Both replicas sit behind 500 Mbps core uplinks; two subflows from
    different pods aggregate to the client's 1 Gbps edge capacity."""
    loop, net, routing, ctl, fs = build_env()
    client = "pod0-rack0-h0"
    replicas = ["pod1-rack0-h0", "pod2-rack0-h0"]
    result = fs.select(client, replicas, 256 * MB)
    assert result.is_split
    assert {a.replica for a in result.assignments} == set(replicas)
    total = sum(a.size_bits for a in result.assignments)
    assert total == pytest.approx(256 * MB)
    assert fs.split_reads == 1
    for a in result.assignments:
        assert a.est_bw_bps == pytest.approx(0.5e9)


def test_split_read_completes_and_subflows_finish_close():
    """§4.3: subflows sized to finish together (< 1 s apart at 256 MB)."""
    loop, net, routing, ctl, fs = build_env()
    client = "pod0-rack0-h0"
    replicas = ["pod1-rack0-h0", "pod2-rack0-h0"]
    result = fs.select(client, replicas, 256 * MB)
    assert result.is_split
    finish = []
    start_assignments(ctl, result, on_complete=lambda f: finish.append(loop.now))
    loop.run()
    assert len(finish) == 2
    assert abs(finish[0] - finish[1]) < 1.0


def test_multi_replica_disabled_gives_single_flow():
    config = FlowserverConfig(enable_multi_replica=False)
    loop, net, routing, ctl, fs = build_env(config)
    result = fs.select(
        "pod0-rack0-h0", ["pod0-rack1-h0", "pod1-rack0-h0"], 256 * MB
    )
    assert not result.is_split
    assert fs.split_reads == 0


def test_select_path_only_single_replica():
    loop, net, routing, ctl, fs = build_env()
    result = fs.select_path_only("pod0-rack0-h0", "pod1-rack0-h0", 256 * MB)
    assert len(result.assignments) == 1
    assert result.assignments[0].replica == "pod1-rack0-h0"


def test_freeze_disabled_config():
    config = FlowserverConfig(enable_freeze=False, enable_multi_replica=False)
    loop, net, routing, ctl, fs = build_env(config)
    fs.select("pod0-rack0-h0", ["pod0-rack1-h0"], 256 * MB)
    assert all(not f.freezed for f in fs.state.flows.values())


def test_invalid_requests_rejected():
    loop, net, routing, ctl, fs = build_env()
    with pytest.raises(ValueError):
        fs.select("pod0-rack0-h0", [], 256 * MB)
    with pytest.raises(ValueError):
        fs.select("pod0-rack0-h0", ["pod0-rack1-h0"], 0)


def test_decision_tracing_records_selections():
    with telemetry.session() as tel:
        loop, net, routing, ctl, fs = build_env()
        fs.select("pod0-rack0-h0", ["pod1-rack0-h0", "pod2-rack0-h0"], 256 * MB,
                  job_id="traced-job")
        fs.select("pod0-rack0-h0", ["pod0-rack0-h0"], 256 * MB)  # local
        fs.close()
    split, local = [e.args for e in tel.tracer.events if e.name == "flowserver.select"]
    assert split["request"] == "traced-job"
    assert split["kind"] == "split"
    assert split["candidates"] == 16  # 2 replicas x 8 paths
    assert local["kind"] == "local"
    assert local["chosen"] == ["local"]
    assert tel.metrics.value("flowserver_split_reads_total") == 1
    assert tel.metrics.value("flowserver_local_reads_total") == 1


def test_request_ids_unique_and_job_id_respected():
    loop, net, routing, ctl, fs = build_env()
    r1 = fs.select("pod0-rack0-h0", ["pod0-rack1-h0"], 256 * MB)
    r2 = fs.select("pod0-rack0-h0", ["pod0-rack1-h0"], 256 * MB)
    assert r1.request_id != r2.request_id
    r3 = fs.select("pod0-rack0-h0", ["pod0-rack1-h0"], 256 * MB, job_id="custom")
    assert r3.request_id == "custom"


def test_estimates_track_reality_through_polling():
    """After scheduling and running for a while, the Flowserver's bandwidth
    estimates converge to the simulator's ground-truth rates."""
    config = FlowserverConfig(enable_multi_replica=False, poll_interval=0.5)
    loop, net, routing, ctl, fs = build_env(config)
    jobs = [
        ("pod0-rack0-h0", "pod0-rack1-h0"),
        ("pod0-rack0-h1", "pod0-rack1-h0"),
        ("pod1-rack0-h0", "pod0-rack1-h1"),
    ]
    for client, replica in jobs:
        result = fs.select(client, [replica], 4 * GB)
        start_assignments(ctl, result)
    loop.run(until=20.0)
    truth = net.ground_truth_rates()
    assert truth  # flows still running
    for flow_id, true_rate in truth.items():
        tracked = fs.state.flows[flow_id]
        est = tracked.bw_bps
        # frozen estimates may lag; unfrozen ones must match measurements
        if not tracked.freezed or loop.now > tracked.freeze_until:
            assert est == pytest.approx(true_rate, rel=0.05)


def test_concurrent_jobs_all_complete():
    loop, net, routing, ctl, fs = build_env()
    import random

    rng = random.Random(3)
    hosts = sorted(net.topology.hosts)
    done = []

    def launch(i):
        client, r1, r2 = rng.sample(hosts, 3)
        result = fs.select(client, [r1, r2], 64 * MB, job_id=f"job{i}")
        start_assignments(ctl, result, on_complete=lambda f: done.append(f.flow_id))

    for i in range(25):
        loop.call_at(rng.uniform(0, 10), launch, i)
    loop.run()
    assert fs.tracked_flow_count() == 0
    assert not net.active_flows
    assert fs.requests_served == 25
