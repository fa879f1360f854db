"""Lease transfer on graceful drain.

A decommissioned primary hands its lease to a chosen secondary at
epoch + 1 *immediately*, instead of letting the grant run out (which
would fence every append for up to a full lease term).  The regression
contract: during a drain, clients never see a ``LeaseExpiredError`` —
the old primary's stale grant fences into a transparent metadata
refresh, and the successor serves the very next append.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.fs.errors import LeaseExpiredError, StaleEpochError
from repro.fs.leases import LeaseGrant, LeaseManager
from repro.fs.retry import RetryPolicy
from repro.sim import EventLoop

MB = 1024 * 1024


# ---------------------------------------------------------------------------
# LeaseManager.transfer semantics
# ---------------------------------------------------------------------------


def test_transfer_moves_lease_with_epoch_bump():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    first = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostA"))
    grant = LeaseGrant.from_json_dict(mgr.transfer("f1", "hostA", "hostB"))
    assert grant.holder == "hostB"
    assert grant.epoch == first.epoch + 1
    assert mgr.transfers == 1
    # the old holder's grant is dead authority now
    with pytest.raises(StaleEpochError):
        mgr.validate("f1", "hostA", first.epoch)
    # ...and the successor's is live without re-acquiring
    mgr.validate("f1", "hostB", grant.epoch)


def test_transfer_refused_when_held_by_someone_else():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    mgr.acquire("f1", "hostC")
    with pytest.raises(LeaseExpiredError):
        mgr.transfer("f1", "hostA", "hostB")
    assert mgr.rejections == 1
    assert mgr.transfers == 0


def test_transfer_of_lapsed_lease_succeeds():
    """Lapsed-but-unclaimed is fine: nobody re-acquired in between."""
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    first = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostA"))
    loop.run(until=15.0)  # lease expired, holder still recorded
    grant = LeaseGrant.from_json_dict(mgr.transfer("f1", "hostA", "hostB"))
    assert grant.holder == "hostB"
    assert grant.epoch == first.epoch + 1


def test_transfer_of_unknown_file_grants_fresh_lease():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    grant = LeaseGrant.from_json_dict(mgr.transfer("new", "hostA", "hostB"))
    assert grant.holder == "hostB"
    assert grant.epoch == 1


# ---------------------------------------------------------------------------
# Drain regression: no LeaseExpiredError surfaces to clients
# ---------------------------------------------------------------------------


def build_drain_cluster(tmp_path):
    return Cluster(
        ClusterConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=2,
            scheme="mayflower",
            store_payload=True,
            seed=23,
            db_directory=tmp_path / "ns",
            lease_duration=30.0,
            # fencing errors (stale epoch on the drained primary) must
            # resolve by metadata refresh + retry, never surface
            retry=RetryPolicy(max_attempts=8, jitter=0.0),
            enable_replica_manager=True,
            heartbeat_interval=2.0,
            heartbeat_timeout=100.0,  # no accidental death during drain
            repair_interval=50.0,
        )
    )


def test_drain_hands_off_primaries_without_client_visible_errors(tmp_path):
    cluster = build_drain_cluster(tmp_path)
    client = cluster.client("pod1-rack1-h1")
    payload = b"drain-me!" * 1000
    errors = []

    def setup():
        meta = yield from client.create("f", chunk_bytes=4 * MB)
        yield from client.append("f", len(payload), payload)
        return meta

    proc = cluster.spawn(setup())
    cluster.loop.run(until=1.0)
    assert proc.exception is None
    meta = proc.result
    old_primary = meta.primary
    successor = meta.replicas[1]
    # the pipelined append acquired the primary's lease
    assert cluster.lease_manager.grants == 1

    def appends():
        # appends racing the drain: every one must commit — fencing
        # errors on the drained primary's stale grant are retried
        # transparently, never surfaced
        try:
            for _ in range(4):
                yield from client.append("f", len(payload), payload)
        except LeaseExpiredError as err:  # pragma: no cover - regression
            errors.append(err)
            raise

    append_proc = cluster.spawn(appends())
    drain_proc = cluster.spawn(cluster.replica_manager.drain(old_primary))
    cluster.loop.run(until=20.0)

    assert errors == []
    assert append_proc.exception is None
    assert drain_proc.exception is None
    assert drain_proc.result == 1  # one file handed off
    assert cluster.lease_manager.transfers == 1
    assert cluster.replica_manager.drains_completed == 1

    updated = cluster.nameserver.lookup("f")
    assert updated["replicas"][0] == successor  # successor is primary now
    assert old_primary in updated["replicas"]  # still a secondary
    assert updated["size_bytes"] == 5 * len(payload)
    # the append pushed to the drained primary was fenced there and
    # committed by the successor; its abandoned staging is gone
    assert cluster.dataservers[old_primary].lease_fencings >= 1
    for replica in updated["replicas"]:
        stored = cluster.dataservers[replica]._files[meta.file_id]
        assert stored.staged == {}, replica

    # the drained host's cached grant is fenced: its stale epoch can
    # never commit again, while the successor keeps serving
    def post_drain_append():
        yield from client.append("f", len(payload), payload)

    post_proc = cluster.spawn(post_drain_append())
    cluster.loop.run(until=25.0)
    assert post_proc.exception is None
    assert cluster.nameserver.lookup("f")["size_bytes"] == 6 * len(payload)
    cluster.shutdown()


def test_drain_skips_files_not_primaried_on_target(tmp_path):
    cluster = build_drain_cluster(tmp_path)
    client = cluster.client("pod0-rack0-h0")
    payload = b"stay" * 100

    def setup():
        meta = yield from client.create("g", chunk_bytes=4 * MB)
        yield from client.append("g", len(payload), payload)
        return meta

    proc = cluster.spawn(setup())
    cluster.loop.run(until=1.0)
    meta = proc.result
    bystander = next(
        h for h in sorted(cluster.topology.hosts) if h not in meta.replicas
    )
    drain_proc = cluster.spawn(cluster.replica_manager.drain(bystander))
    cluster.loop.run(until=3.0)
    assert drain_proc.exception is None
    assert drain_proc.result == 0
    assert cluster.lease_manager.transfers == 0
    assert cluster.nameserver.lookup("g")["replicas"][0] == meta.primary
    cluster.shutdown()
