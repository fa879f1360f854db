"""Unit tests for the Fig. 8 experiment helpers."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.experiment import bootstrap_files, run_cluster_workload
from repro.workload.generator import LocalityDistribution

MB = 1024 * 1024


@pytest.fixture()
def cluster():
    c = Cluster(
        ClusterConfig(
            pods=2, racks_per_pod=2, hosts_per_rack=2,
            scheme="mayflower", seed=8,
        )
    )
    yield c
    c.shutdown()


class TestBootstrapFiles:
    def test_creates_files_at_final_size(self, cluster):
        files = bootstrap_files(cluster, num_files=5, file_size_bytes=64 * MB)
        assert len(files) == 5
        for meta in files:
            assert meta.size_bytes == 64 * MB
            assert cluster.nameserver.lookup(meta.name)["size_bytes"] == 64 * MB
            for replica in meta.replicas:
                ds = cluster.dataservers[replica]
                assert ds.file_size(meta.file_id) == 64 * MB

    def test_no_network_activity(self, cluster):
        bootstrap_files(cluster, num_files=3, file_size_bytes=64 * MB)
        assert not cluster.network.active_flows
        assert cluster.dataplane.transfers_started == 0

    def test_respects_replication(self, cluster):
        files = bootstrap_files(
            cluster, num_files=2, file_size_bytes=MB, replication=2
        )
        for meta in files:
            assert len(meta.replicas) == 2


class TestRunClusterWorkload:
    def test_custom_locality(self):
        durations = run_cluster_workload(
            "hdfs-ecmp",
            num_jobs=12,
            num_files=6,
            seed=4,
            locality=LocalityDistribution(0.0, 0.0, 1.0),  # all cross-pod
        )
        assert len(durations) == 12
        # locality is relative to the *primary*, but HDFS reads from the
        # nearest replica (often the client-pod copy at 1 Gbps); still,
        # no 256 MB read can beat the edge line rate (~2.15 s)
        assert min(durations) > 2.1
        # and some reads do traverse the 500 Mbps core (>= ~4.3 s)
        assert max(durations) > 4.2

    def test_saturation_detection(self):
        with pytest.raises(RuntimeError, match="saturated|finished"):
            run_cluster_workload(
                "hdfs-ecmp",
                num_jobs=30,
                num_files=6,
                seed=4,
                max_sim_seconds=3.0,
            )

    def test_scheme_validated(self):
        with pytest.raises(ValueError, match="unknown scheme 'not-a-scheme'"):
            run_cluster_workload("not-a-scheme", num_jobs=2, num_files=2)
