"""Differential + end-to-end tests for the sharded control plane.

Contract: a 1-domain / 1-partition configuration IS the default path —
identical to an explicit ``controller_domains=1, metadata_partitions=1``
configuration (the byte-level paper pins live in ``tests/paper``).  The
multi-domain / multi-partition configurations must complete the same
workloads end-to-end, route metadata through the shard map, and survive
a ``coordinator_partition`` storm with every read completing.
"""

import tempfile
from pathlib import Path

import pytest

from repro.cluster import Cluster, ClusterConfig, run_cluster_workload
from repro.core import build_control_plane
from repro.experiments.runner import SchemeRunConfig, run_scheme_on_workload
from repro.faults.plan import FaultEvent, FaultPlan
from repro.net.topology import three_tier
from repro.workload.generator import WorkloadConfig, generate_workload


def sharded_config(**overrides) -> ClusterConfig:
    base = dict(
        controller_domains=4,
        metadata_partitions=4,
        db_directory=Path(tempfile.mkdtemp(prefix="mayflower-shard-")),
    )
    base.update(overrides)
    return ClusterConfig(**base)


# ---------------------------------------------------------------------------
# The default (single-domain, single-partition) path
# ---------------------------------------------------------------------------


def test_explicit_single_domain_single_partition_is_the_default_path():
    """controller_domains=1, metadata_partitions=1 == defaults, exactly."""
    default = run_cluster_workload(
        "mayflower", num_jobs=12, num_files=6, seed=9
    )
    explicit = run_cluster_workload(
        "mayflower",
        num_jobs=12,
        num_files=6,
        seed=9,
        config=ClusterConfig(
            seed=9,
            controller_domains=1,
            metadata_partitions=1,
            db_directory=Path(tempfile.mkdtemp(prefix="mayflower-mono-")),
        ),
    )
    assert default == explicit


def test_single_domain_runner_matches_monolithic_selections():
    topo = three_tier(pods=4, racks_per_pod=2, hosts_per_rack=2)
    workload = generate_workload(topo, WorkloadConfig(num_jobs=30), seed=5)
    mono = run_scheme_on_workload(
        "mayflower", workload, SchemeRunConfig(topology=topo), seed=5
    )
    explicit = run_scheme_on_workload(
        "mayflower",
        workload,
        SchemeRunConfig(topology=topo, controller_domains=1),
        seed=5,
    )
    assert [
        (r.job_id, r.replica_choices, r.completion_time) for r in mono
    ] == [
        (r.job_id, r.replica_choices, r.completion_time) for r in explicit
    ]


# ---------------------------------------------------------------------------
# Multi-domain / multi-partition end-to-end
# ---------------------------------------------------------------------------


def test_sharded_cluster_serves_reads_end_to_end():
    cluster = Cluster(sharded_config(seed=11))
    try:
        client = cluster.client("pod2-rack1-h1")

        def workload():
            names = [f"/shard/file-{i}" for i in range(12)]
            for name in names:
                yield from client.create(name, replication=3)
                yield from client.append(name, 64 * 1024)
            sizes = []
            for name in names:
                result = yield from client.read(name)
                sizes.append(result.file_size)
            return sizes

        sizes = cluster.run(workload())
        assert sizes == [64 * 1024] * 12
        coord = cluster.plane.coordinator
        assert coord is not None and coord.requests_served > 0
        # both halves of the split control plane made decisions
        assert coord.intra_pod_delegations + coord.inter_pod_selections > 0
        # metadata landed across partitions, not all in one shard
        populated = sum(
            1 for ns in cluster.nameservers if ns.list_files()
        )
        assert populated >= 2
    finally:
        cluster.shutdown()


def test_domain_count_must_match_pods():
    """Checked once, in the builder both front ends call."""
    with pytest.raises(ValueError, match="pod-granular"):
        build_control_plane(three_tier(), domains=3)


def test_domains_require_a_flowserver_scheme():
    with pytest.raises(ValueError, match="requires a flowserver scheme"):
        build_control_plane(three_tier(), flowserver=False, domains=4)


def test_replica_manager_requires_single_partition():
    with pytest.raises(ValueError):
        Cluster(sharded_config(enable_replica_manager=True))


# ---------------------------------------------------------------------------
# coordinator_partition storm: graceful degradation
# ---------------------------------------------------------------------------


def test_coordinator_partition_storm_all_reads_complete():
    cluster = Cluster(sharded_config(seed=17))
    try:
        client = cluster.client("pod0-rack0-h0")

        def setup():
            for i in range(8):
                name = f"/storm/file-{i}"
                yield from client.create(name, replication=3)
                yield from client.append(name, 32 * 1024)

        cluster.run(setup())
        # partition the coordinator for a window that covers the reads
        plan = FaultPlan((
            FaultEvent(
                time=cluster.loop.now + 0.001,
                kind="coordinator_partition",
                duration=30.0,
            ),
        ))
        injector = cluster.inject_faults(plan)

        def reads():
            sizes = []
            for i in range(8):
                result = yield from client.read(f"/storm/file-{i}")
                sizes.append(result.file_size)
            return sizes

        sizes = cluster.run(reads())
        assert sizes == [32 * 1024] * 8
        assert injector.events_applied >= 1
        coord = cluster.plane.coordinator
        # inter-pod reads issued during the outage went through the
        # salted-ECMP fallback instead of failing
        assert coord.degraded_selections > 0
        assert any(
            e.kind == "coordinator_partition" for e in injector.journal
        )
    finally:
        cluster.shutdown()


def test_monolithic_cluster_ignores_coordinator_partition():
    """The fault is a no-op on clusters without a coordinator."""
    durations = run_cluster_workload(
        "mayflower",
        num_jobs=8,
        num_files=5,
        seed=19,
        fault_plan=FaultPlan((
            FaultEvent(time=0.5, kind="coordinator_partition", duration=5.0),
        )),
    )
    assert len(durations) == 8
