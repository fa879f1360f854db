"""Placement over the ``Topology`` scope index equals the scan it replaced.

Every placement policy and the workload's client placement draw from
:meth:`Topology.rack_host_ids`, :meth:`~Topology.pod_host_ids_off_rack` and
:meth:`~Topology.host_ids_off_pod`.  Each is compared with its scan-based
oracle (``tests/fs/placement_oracle.py``) on the same seed: the same
replica list (or the same error), and the RNG left in the same state, so
no digest can move.
"""

from __future__ import annotations

from random import Random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.monitor import EndHostMonitor
from repro.baselines.sinbad_placement import SinbadWritePlacement
from repro.cluster.planners import FlowserverWritePlacement
from repro.core import build_control_plane
from repro.fs.placement import HdfsRackAwarePlacement, PaperEvalPlacement
from repro.net import FlowNetwork, RoutingTable
from repro.net.topology import Host, leaf_spine, three_tier
from repro.sim import EventLoop
from repro.workload.generator import FileSpec, LocalityDistribution, _place_client
from tests.fs import placement_oracle as oracle

GB = 8e9

# 11 makes ids such as "h10" sort before "h2", so sorted order differs
# from the order the builders add hosts in
counts = st.sampled_from([1, 2, 3, 11])
shapes = st.one_of(
    st.tuples(st.just("three_tier"), st.integers(1, 3), counts, counts),
    st.tuples(st.just("leaf_spine"), counts, counts),
)

localities = st.sampled_from(
    [
        LocalityDistribution(0.5, 0.3, 0.2),
        LocalityDistribution(0.2, 0.3, 0.5),
        LocalityDistribution(1.0, 0.0, 0.0),
        LocalityDistribution(0.0, 1.0, 0.0),
        LocalityDistribution(0.0, 0.0, 1.0),
    ]
)

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def build(shape):
    if shape[0] == "three_tier":
        _, pods, racks, hosts = shape
        return three_tier(pods=pods, racks_per_pod=racks, hosts_per_rack=hosts)
    _, leaves, hosts = shape
    return leaf_spine(leaves=leaves, spines=2, hosts_per_leaf=hosts)


def pick_writer(topo, index):
    """``None`` for index -1, else one of the topology's hosts."""
    hosts = sorted(topo.hosts)
    return None if index < 0 else hosts[index % len(hosts)]


def outcome(call):
    try:
        return call()
    except Exception as exc:  # both sides must fail the same way
        return type(exc).__name__


def assert_same_draws(place, reference, real_rng, ref_rng, draws=3):
    for _ in range(draws):
        assert outcome(place) == outcome(reference)
        assert real_rng.getstate() == ref_rng.getstate()


@SETTINGS
@given(shapes)
@example(("three_tier", 1, 1, 1))
@example(("three_tier", 2, 3, 2))
@example(("three_tier", 1, 11, 11))
@example(("leaf_spine", 1, 1))
def test_scope_index_matches_a_scan(shape):
    topo = build(shape)
    hosts = topo.hosts.values()
    for rack in topo.racks():
        assert topo.rack_host_ids(rack) == tuple(
            sorted(h.host_id for h in hosts if h.rack == rack)
        )
    for pod in topo.pods():
        assert topo.host_ids_off_pod(pod) == tuple(
            sorted(h.host_id for h in hosts if h.pod != pod)
        )
        for rack in topo.racks():
            assert topo.pod_host_ids_off_rack(pod, rack) == tuple(
                sorted(h.host_id for h in hosts if h.pod == pod and h.rack != rack)
            )


@SETTINGS
@given(shapes, st.integers(0, 2**32), st.integers(1, 5), st.integers(-1, 30))
@example(("three_tier", 1, 1, 1), 0, 3, -1)
@example(("three_tier", 1, 3, 1), 1, 5, 0)
@example(("three_tier", 3, 1, 2), 2, 4, 3)
@example(("three_tier", 2, 11, 11), 4, 5, 7)
@example(("leaf_spine", 2, 1), 3, 5, -1)
def test_static_policies_match_the_scan_oracle(shape, seed, replication, writer_index):
    topo = build(shape)
    writer = pick_writer(topo, writer_index)
    for policy_cls, reference in (
        (PaperEvalPlacement, oracle.paper_eval_place),
        (HdfsRackAwarePlacement, oracle.hdfs_place),
    ):
        real_rng, ref_rng = Random(seed), Random(seed)
        policy = policy_cls(topo, real_rng)
        assert_same_draws(
            lambda: policy.place(replication, writer),
            lambda: reference(topo, ref_rng, replication),
            real_rng,
            ref_rng,
        )


@SETTINGS
@given(
    shapes,
    st.integers(0, 2**32),
    st.integers(1, 5),
    st.integers(-1, 30),
    st.integers(1, 8),
    st.booleans(),
)
@example(("three_tier", 1, 1, 1), 0, 3, 0, 8, False)
@example(("three_tier", 2, 2, 2), 1, 5, 3, 2, True)
@example(("leaf_spine", 3, 2), 2, 4, -1, 1, True)
@example(("leaf_spine", 11, 11), 3, 5, 0, 8, True)
def test_sinbad_placement_matches_the_scan_oracle(
    shape, seed, replication, writer_index, candidates, loaded
):
    topo = build(shape)
    writer = pick_writer(topo, writer_index)
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    hosts = sorted(topo.hosts)
    if loaded and len(hosts) > 1:
        net.start_flow("bg", RoutingTable(topo).paths(hosts[0], hosts[-1])[0], GB)
    monitor = EndHostMonitor(loop, net, auto_start=False)
    monitor.sample_now()
    real_rng, ref_rng = Random(seed), Random(seed)
    real = SinbadWritePlacement(topo, monitor, real_rng, candidates)
    ref = SinbadWritePlacement(topo, monitor, ref_rng, candidates)
    assert_same_draws(
        lambda: real.place(replication, writer),
        lambda: oracle.scored_place(
            topo, replication, writer, lambda src, pool: ref._least_utilized(pool)
        ),
        real_rng,
        ref_rng,
    )


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    shapes,
    st.integers(0, 2**32),
    st.integers(1, 5),
    st.integers(-1, 30),
    st.integers(1, 8),
    st.booleans(),
)
@example(("three_tier", 1, 1, 1), 0, 3, 0, 8, False)
@example(("three_tier", 2, 2, 2), 1, 5, -1, 2, True)
@example(("leaf_spine", 3, 2), 2, 4, 1, 1, True)
@example(("three_tier", 2, 2, 11), 3, 5, 0, 8, True)
def test_flowserver_placement_matches_the_scan_oracle(
    shape, seed, replication, writer_index, candidates, loaded
):
    topo = build(shape)
    writer = pick_writer(topo, writer_index)
    plane = build_control_plane(topo)
    hosts = sorted(topo.hosts)
    if loaded and len(hosts) > 1:
        plane.flowserver.select_path_only(hosts[-1], hosts[0], 100 * GB)
    real_rng, ref_rng = Random(seed), Random(seed)
    real = FlowserverWritePlacement(
        topo, plane.routing, plane.flowserver, real_rng, candidates
    )
    ref = FlowserverWritePlacement(
        topo, plane.routing, plane.flowserver, ref_rng, candidates
    )
    assert_same_draws(
        lambda: real.place(replication, writer),
        lambda: oracle.scored_place(topo, replication, writer, ref._best_destination),
        real_rng,
        ref_rng,
    )


@SETTINGS
@given(shapes, st.integers(0, 2**32), st.integers(1, 5), localities)
@example(("three_tier", 1, 1, 1), 0, 1, LocalityDistribution(1.0, 0.0, 0.0))
@example(("three_tier", 1, 1, 3), 1, 3, LocalityDistribution(0.0, 0.0, 1.0))
@example(("three_tier", 2, 1, 2), 2, 2, LocalityDistribution(0.0, 1.0, 0.0))
@example(("leaf_spine", 2, 2), 3, 3, LocalityDistribution(0.5, 0.3, 0.2))
@example(("three_tier", 2, 11, 11), 4, 3, LocalityDistribution(0.2, 0.3, 0.5))
def test_client_placement_matches_the_scan_oracle(shape, seed, replication, locality):
    topo = build(shape)
    hosts = sorted(topo.hosts)
    replicas = Random(seed).sample(hosts, min(replication, len(hosts)))
    file = FileSpec("f", 1, tuple(replicas))
    real_rng, ref_rng = Random(seed + 1), Random(seed + 1)
    assert_same_draws(
        lambda: _place_client(topo, file, locality, real_rng),
        lambda: oracle.place_client(topo, file, locality, ref_rng),
        real_rng,
        ref_rng,
        draws=5,
    )


def test_add_host_after_a_scope_query_is_seen():
    topo = three_tier(pods=2, racks_per_pod=2, hosts_per_rack=1)
    before = repr(topo)
    assert topo.rack_host_ids("pod0-rack0") == ("pod0-rack0-h0",)
    assert topo.pod_host_ids_off_rack("pod0", "pod0-rack1") == ("pod0-rack0-h0",)
    assert "pod0-rack0-h0" not in topo.host_ids_off_pod("pod0")
    assert repr(topo) == before  # the cache is not part of the value

    topo.add_host(Host("pod0-rack0-h1", rack="pod0-rack0", pod="pod0"))
    assert topo.rack_host_ids("pod0-rack0") == ("pod0-rack0-h0", "pod0-rack0-h1")
    assert topo.pod_host_ids_off_rack("pod0", "pod0-rack1") == (
        "pod0-rack0-h0",
        "pod0-rack0-h1",
    )
    assert "pod0-rack0-h1" in topo.host_ids_off_pod("pod1")
    assert [h.host_id for h in topo.hosts_in_rack("pod0-rack0")] == [
        "pod0-rack0-h0",
        "pod0-rack0-h1",
    ]
