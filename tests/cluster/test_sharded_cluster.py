"""Differential + end-to-end tests for the sharded nameserver front.

Contract: a 1-partition configuration IS the default path — identical to
an explicit ``metadata_partitions=1`` configuration (the byte-level paper
pins live in ``tests/paper``).  A multi-partition configuration must
complete the same workloads end-to-end, with reads planned by the one
Flowserver and metadata routed through the shard map.
"""

import tempfile
from pathlib import Path

import pytest

from repro.cluster import Cluster, ClusterConfig, run_cluster_workload


def sharded_config(**overrides) -> ClusterConfig:
    base = dict(
        metadata_partitions=4,
        db_directory=Path(tempfile.mkdtemp(prefix="mayflower-shard-")),
    )
    base.update(overrides)
    return ClusterConfig(**base)


def test_explicit_single_domain_single_partition_is_the_default_path():
    """metadata_partitions=1 == defaults, exactly."""
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
            metadata_partitions=1,
            db_directory=Path(tempfile.mkdtemp(prefix="mayflower-mono-")),
        ),
    )
    assert default == explicit


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
        # the Flowserver planned the reads
        assert cluster.flowserver.requests_served >= 12
        # metadata landed across partitions, not all in one shard
        populated = sum(
            1 for ns in cluster.nameservers if ns.list_files()
        )
        assert populated >= 2
    finally:
        cluster.shutdown()


def test_replica_manager_requires_single_partition():
    with pytest.raises(ValueError):
        Cluster(sharded_config(enable_replica_manager=True))
