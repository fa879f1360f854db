"""Integration tests for the fully wired cluster."""

import tempfile
from dataclasses import fields

import pytest

from repro.baselines import SCHEMES
from repro.cluster import Cluster, ClusterConfig, run_cluster_workload
from repro.experiments.metrics import summarize
from repro.fs.leases import LEASE_SERVICE

MB = 1024 * 1024


def small_config(scheme="mayflower", **overrides):
    defaults = dict(
        pods=2,
        racks_per_pod=2,
        hosts_per_rack=2,
        scheme=scheme,
        store_payload=True,
        seed=3,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def test_cluster_builds_all_components():
    cluster = Cluster(small_config())
    assert len(cluster.dataservers) == 8
    assert cluster.flowserver is not None
    assert cluster.nameserver_host == sorted(cluster.topology.hosts)[0]
    cluster.shutdown()


def test_hdfs_ecmp_cluster_has_no_flowserver():
    cluster = Cluster(small_config("hdfs-ecmp"))
    assert cluster.flowserver is None
    cluster.shutdown()


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="cannot host scheme 'sinbad-ecmp'"):
        Cluster(small_config("sinbad-ecmp"))
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        Cluster(small_config("bogus"))


#: The SCHEMES rows the cluster hosts: it has no end-host monitor for
#: Sinbad-R and no Hedera rescheduler.
HOSTED = [n for n, s in SCHEMES.items() if s.replica != "sinbad" and not s.hedera]


@pytest.mark.parametrize("scheme", HOSTED)
def test_every_hosted_row_reads_remote_and_local(scheme):
    cluster = Cluster(small_config(scheme))
    writer = cluster.client(sorted(cluster.topology.hosts)[1])
    payload = b"r" * MB

    def create():
        yield from writer.create("f", chunk_bytes=4 * MB)
        yield from writer.append("f", len(payload), payload)
        return (yield from writer.stat("f")).replicas

    replicas = cluster.run(create())
    others = [h for h in sorted(cluster.topology.hosts) if h not in replicas]
    remote = cluster.run(cluster.client(others[0]).read("f"))
    local = cluster.run(cluster.client(replicas[0]).read("f"))
    assert remote.data == local.data == payload
    assert all(t.replica in replicas for t in remote.transfers)
    assert [t.replica for t in local.transfers] == [replicas[0]]
    cluster.shutdown()


@pytest.mark.parametrize("scheme", [n for n in SCHEMES if n not in HOSTED])
def test_every_foreign_row_is_rejected(scheme):
    with pytest.raises(ValueError, match=f"cannot host scheme {scheme!r}"):
        Cluster(small_config(scheme))
    with pytest.raises(ValueError, match=f"cannot host scheme {scheme!r}"):
        run_cluster_workload(scheme, num_jobs=1, num_files=1, config=small_config())


@pytest.mark.parametrize(
    "alias,row", [("hdfs-ecmp", "nearest-ecmp"), ("hdfs-mayflower", "nearest-mayflower")]
)
def test_hdfs_names_are_labels_of_nearest_rows(alias, row):
    """Fig. 8's names run exactly the nearest-* rows they label."""
    def durations(scheme):
        return run_cluster_workload(
            scheme, num_jobs=20, num_files=10,
            config=small_config(store_payload=False),
        )

    assert durations(alias) == durations(row)


def test_end_to_end_file_lifecycle():
    cluster = Cluster(small_config())
    host = sorted(cluster.topology.hosts)[1]
    client = cluster.client(host)
    payload = b"mayflower" * 100000  # ~0.9 MB

    def scenario():
        yield from client.create("doc", chunk_bytes=4 * MB)
        yield from client.append("doc", len(payload), payload)
        result = yield from client.read("doc")
        yield from client.delete("doc")
        return result

    result = cluster.run(scenario())
    assert result.data == payload
    assert not cluster.nameserver.exists("doc")
    cluster.shutdown()


def test_default_cluster_serves_one_nameserver_from_the_first_host():
    """The paper's deployment: one nameserver and its lease service,
    both served from the first host."""
    cluster = Cluster(ClusterConfig())
    host = sorted(cluster.topology.hosts)[0]
    assert cluster.nameserver_host == host
    metadata_services = {
        key: handler
        for key, handler in cluster.fabric._services.items()
        if key[1] in ("nameserver", LEASE_SERVICE)
    }
    assert metadata_services == {
        (host, "nameserver"): cluster.nameserver,
        (host, LEASE_SERVICE): cluster.lease_manager,
    }
    assert cluster.nameserver.lease_manager is cluster.lease_manager
    cluster.shutdown()


def test_cluster_makes_no_directory(monkeypatch):
    """The namespace lives in memory: building, running and shutting down
    a cluster never asks for a temporary directory."""

    def refuse(*args, **kwargs):
        raise AssertionError("the cluster asked for a temporary directory")

    monkeypatch.setattr(tempfile, "mkdtemp", refuse)
    Cluster(small_config()).shutdown()
    run_cluster_workload("mayflower", num_jobs=2, num_files=2, config=small_config())


def test_cluster_config_fields_are_pinned():
    """Every deployment setting, by name: a new knob is a deliberate edit
    here, not a silent addition."""
    assert [f.name for f in fields(ClusterConfig)] == [
        "pods",
        "racks_per_pod",
        "hosts_per_rack",
        "oversubscription",
        "scheme",
        "replication",
        "chunk_bytes",
        "consistency",
        "placement",
        "store_payload",
        "rpc_latency",
        "rpc_jitter",
        "flowserver",
        "seed",
        "retry",
        "enable_replica_manager",
        "heartbeat_interval",
        "heartbeat_timeout",
        "repair_interval",
        "lease_duration",
        "fanout",
    ]


@pytest.mark.parametrize("scheme", ["mayflower", "hdfs-mayflower", "hdfs-ecmp"])
def test_append_is_one_protocol_in_every_deployment(scheme):
    """Whatever the scheme, an append is one leased push and one ordered
    commit at the primary, leaving identical contiguous ledgers on every
    replica, with Flowserver-planned fan-out exactly where there is a
    Flowserver."""
    cluster = Cluster(small_config(scheme))
    client = cluster.client(sorted(cluster.topology.hosts)[7])
    blobs = [b"a" * MB, b"b" * (2 * MB)]

    def scenario():
        meta = yield from client.create("f", chunk_bytes=4 * MB)
        for blob in blobs:
            yield from client.append("f", len(blob), blob)
        fresh = yield from client.stat("f")
        return meta, fresh.size_bytes

    meta, size = cluster.run(scenario())
    assert size == 3 * MB
    primary = cluster.dataservers[meta.primary]
    assert (primary.pushes_staged, primary.appends_served) == (2, 2)
    reference = primary.append_ledger(meta.file_id)
    assert [(e.offset, e.length) for e in reference] == [(0, MB), (MB, 2 * MB)]
    for replica in meta.replicas:
        ds = cluster.dataservers[replica]
        assert ds.append_ledger(meta.file_id) == reference, replica
        assert bytes(ds._files[meta.file_id].payload) == b"".join(blobs)
    if cluster.flowserver is not None:
        assert cluster.flowserver.fanout_requests == 2
    cluster.shutdown()


def test_mayflower_cluster_read_uses_flowserver():
    cluster = Cluster(small_config())
    host = sorted(cluster.topology.hosts)[1]
    client = cluster.client(host)

    def scenario():
        meta = yield from client.create("f", chunk_bytes=256 * MB)
        for replica in meta.replicas:
            cluster.dataservers[replica].load_preexisting(meta.file_id, 64 * MB)
        cluster.nameserver.record_append("f", 64 * MB)
        yield from client.stat("f")
        result = yield from client.read("f")
        return result

    cluster.run(scenario())
    assert cluster.flowserver.requests_served >= 1
    cluster.shutdown()


def test_client_on_unknown_host_rejected():
    cluster = Cluster(small_config())
    with pytest.raises(ValueError):
        cluster.client("ghost")
    cluster.shutdown()


class TestClusterWorkload:
    def test_returns_one_duration_per_job(self):
        durations = run_cluster_workload(
            "mayflower", num_jobs=20, num_files=10, seed=5
        )
        assert len(durations) == 20
        assert all(d > 0 for d in durations)

    def test_deterministic(self):
        a = run_cluster_workload("hdfs-ecmp", num_jobs=15, num_files=10, seed=5)
        b = run_cluster_workload("hdfs-ecmp", num_jobs=15, num_files=10, seed=5)
        assert a == b

    def test_mayflower_beats_hdfs_ecmp(self):
        mayflower = summarize(
            run_cluster_workload("mayflower", num_jobs=60, num_files=30, seed=5)
        )
        hdfs = summarize(
            run_cluster_workload("hdfs-ecmp", num_jobs=60, num_files=30, seed=5)
        )
        assert mayflower.mean < hdfs.mean
