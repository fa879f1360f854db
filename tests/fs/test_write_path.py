"""The lease-guarded two-phase write path, end to end.

Covers the append protocol (push_data + commit_append over a
planned fan-out), epoch fencing on both the dataserver and nameserver
sides, secondary self-repair (catch-up and truncation), retry
idempotence, epoch-preferring nameserver rebuild, and lease-expiry fault
injection with primary failover — the exactly-once ledger invariant
throughout.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.fanout import RelayNode
from repro.faults.plan import FaultEvent, FaultPlan
from repro.fs.errors import LeaseExpiredError, StaleEpochError
from repro.fs.retry import IMMEDIATE_FAILOVER, RetryPolicy

MB = 1024 * 1024

#: Deep budget: failover repairs take several heartbeat timeouts.
FAILOVER_RETRY = RetryPolicy(
    max_attempts=40,
    base_delay=0.05,
    multiplier=2.0,
    max_delay=2.0,
    jitter=0.5,
    operation_deadline=None,
    rpc_timeout=None,
)


def build_wp_cluster(
    scheme="mayflower",
    fanout="auto",
    retry=IMMEDIATE_FAILOVER,
    replica_manager=False,
    seed=17,
):
    return Cluster(
        ClusterConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=2,
            scheme=scheme,
            store_payload=True,
            seed=seed,
            fanout=fanout,
            lease_duration=12.0,
            retry=retry,
            enable_replica_manager=replica_manager,
            heartbeat_interval=2.0,
            heartbeat_timeout=5.0,
            repair_interval=3.0,
        )
    )


def writer_host(cluster, meta):
    return next(
        h for h in sorted(cluster.dataservers) if h not in meta.replicas
    )


def ledgers_of(cluster, meta):
    return {
        r: cluster.dataservers[r].append_ledger(meta.file_id)
        for r in meta.replicas
    }


class TestPipelinedAppend:
    def test_end_to_end_replication_and_ledgers(self):
        cluster = build_wp_cluster()
        client = cluster.client("pod1-rack1-h1")
        payloads = [b"a" * (1 * MB), b"b" * (2 * MB), b"c" * (1 * MB)]

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            for blob in payloads:
                yield from client.append("f", len(blob), blob)
            return meta

        meta = cluster.run(scenario())
        total = sum(len(b) for b in payloads)
        whole = b"".join(payloads)
        for replica in meta.replicas:
            ds = cluster.dataservers[replica]
            assert ds.file_size(meta.file_id) == total
            assert bytes(ds._files[meta.file_id].payload) == whole
        # every replica holds the identical, exactly-once ledger
        ledgers = ledgers_of(cluster, meta)
        reference = ledgers[meta.primary]
        assert len(reference) == len(payloads)
        assert [e.offset for e in reference] == [0, 1 * MB, 3 * MB]
        assert len({e.append_id for e in reference}) == len(payloads)
        assert all(e.epoch == 1 for e in reference)
        for replica, ledger in ledgers.items():
            assert ledger == reference, replica
        # one push and one ordered commit per append, at the primary
        primary_ds = cluster.dataservers[meta.primary]
        assert primary_ds.pushes_staged == len(payloads)
        assert primary_ds.appends_served == len(payloads)
        # nameserver sees the committed size
        assert cluster.nameserver.lookup("f")["size_bytes"] == total
        cluster.shutdown()

    def test_rpc_timeout_does_not_bound_the_bulk_push(self):
        """A 256 MiB append spends ~34 s in the data plane; the
        control-plane ``rpc_timeout`` must not expire the push, or every
        retry re-pushes the block beside the copy still in flight."""
        cluster = build_wp_cluster(
            seed=1,
            retry=RetryPolicy(max_attempts=4, jitter=0.0, rpc_timeout=1.0),
        )
        client = cluster.client("pod1-rack1-h1")

        def scenario():
            meta = yield from client.create("f")
            size = yield from client.append("f", 256 * MB)
            return meta, size

        meta, size = cluster.run(scenario())
        assert size == 256 * MB
        assert cluster.dataservers[meta.primary].pushes_staged == 1
        assert client.append_retries == 0
        cluster.shutdown()

    def test_flowserver_plans_fanout(self):
        cluster = build_wp_cluster(scheme="mayflower", fanout="auto")
        client = cluster.client("pod1-rack1-h1")

        def scenario():
            yield from client.create("f", chunk_bytes=4 * MB)
            yield from client.append("f", 2 * MB, b"x" * (2 * MB))

        cluster.run(scenario())
        fs = cluster.flowserver
        assert fs.fanout_requests >= 1
        assert (
            fs.fanout_tree_plans + fs.fanout_chain_plans
            + fs.fanout_static_fallbacks
        ) == fs.fanout_requests
        cluster.shutdown()

    def test_static_chain_on_ecmp_scheme(self):
        cluster = build_wp_cluster(
            scheme="hdfs-ecmp", fanout="chain"
        )
        client = cluster.client("pod1-rack1-h1")
        blob = b"y" * (1 * MB)

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            yield from client.append("f", len(blob), blob)
            return meta

        meta = cluster.run(scenario())
        for replica in meta.replicas:
            assert cluster.dataservers[replica].file_size(meta.file_id) == len(blob)
        cluster.shutdown()

    def test_retried_commit_deduplicates(self):
        cluster = build_wp_cluster()
        client = cluster.client("pod1-rack1-h1")
        blob = b"z" * (1 * MB)

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            primary = cluster.dataservers[meta.primary]
            children = tuple(
                RelayNode(host=r, path=None, est_bw_bps=0.0)
                for r in meta.replicas[1:]
            )
            # first attempt: push + commit
            yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "push_data",
                meta.file_id, "ap:test:0", len(blob), client.host_id, blob,
            )
            first = yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "commit_append",
                meta.file_id, "ap:test:0", client.host_id, children,
            )
            # the "ack was lost" retry: push is a no-op, commit dedups
            yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "push_data",
                meta.file_id, "ap:test:0", len(blob), client.host_id, blob,
            )
            second = yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "commit_append",
                meta.file_id, "ap:test:0", client.host_id, children,
            )
            return meta, primary, first, second

        meta, primary, first, second = cluster.run(scenario())
        assert first == second == len(blob)
        assert primary.appends_deduplicated >= 1
        # committed exactly once, everywhere
        for ledger in ledgers_of(cluster, meta).values():
            assert [e.append_id for e in ledger] == ["ap:test:0"]
        cluster.shutdown()

    def test_ack_after_a_failed_relay_is_recorded_everywhere(self):
        """The primary applies an append, then its relay hop fails.  The
        client's retry must not be acknowledged from the primary's state
        alone: whatever size the client sees acked, the nameserver has
        recorded and every replica's ledger holds."""
        cluster = build_wp_cluster(
            fanout="chain",
            retry=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0),
        )
        client = cluster.client("pod1-rack1-h1")
        blob = b"h" * MB

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            first_hop = meta.replicas[1]
            # Take the primary's only relay hop off the fabric for the
            # first attempt; it is back before the retry's backoff expires.
            cluster.fabric.set_down(first_hop)
            cluster.loop.call_at(
                cluster.loop.now + 0.5,
                lambda: cluster.fabric.set_down(first_hop, down=False),
            )
            size = yield from client.append("f", len(blob), blob)
            return meta, size

        meta, acked = cluster.run(scenario())
        assert client.append_retries >= 1
        assert acked == len(blob)
        assert cluster.nameserver.lookup("f")["size_bytes"] == acked
        for replica, ledger in ledgers_of(cluster, meta).items():
            assert [(e.offset, e.length) for e in ledger] == [(0, acked)], replica
        cluster.shutdown()


    def test_two_clients_on_one_host_never_share_append_ids(self):
        """Append ids are the dedup key: a second client on the same host
        restarting the sequence at 0 had its first append "deduplicated"
        against the first client's — acked, never written."""
        cluster = build_wp_cluster()
        first = cluster.client("pod1-rack1-h1")
        second = cluster.client("pod1-rack1-h1")

        def scenario():
            meta = yield from first.create("f", chunk_bytes=4 * MB)
            sizes = []
            for client, byte in ((first, b"1"), (second, b"2"), (first, b"3")):
                size = yield from client.append("f", 100, byte * 100)
                sizes.append(size)
            return meta, sizes

        meta, sizes = cluster.run(scenario())
        assert sizes == [100, 200, 300]
        for replica in meta.replicas:
            stored = cluster.dataservers[replica]._files[meta.file_id]
            assert bytes(stored.payload) == b"1" * 100 + b"2" * 100 + b"3" * 100
            assert len({e.append_id for e in stored.ledger}) == 3
        assert cluster.nameserver.lookup("f")["size_bytes"] == 300
        cluster.shutdown()

    def test_relayed_append_drops_its_abandoned_staging(self):
        """A push the client abandoned (it failed over before committing)
        is purged when the same append arrives by relay instead."""
        cluster = build_wp_cluster()
        client = cluster.client("pod1-rack1-h1")
        blob = b"r" * MB

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            abandoned = meta.replicas[1]
            children = tuple(
                RelayNode(host=r, path=None, est_bw_bps=0.0)
                for r in meta.replicas[1:]
            )
            for target in (abandoned, meta.primary):
                yield from cluster.fabric.invoke(
                    client.host_id, target, "dataserver", "push_data",
                    meta.file_id, "ap:moved:0", len(blob), client.host_id, blob,
                )
            stored = cluster.dataservers[abandoned]._files[meta.file_id]
            assert list(stored.staged) == ["ap:moved:0"]
            yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "commit_append",
                meta.file_id, "ap:moved:0", client.host_id, children,
            )
            return meta

        meta = cluster.run(scenario())
        for replica in meta.replicas:
            stored = cluster.dataservers[replica]._files[meta.file_id]
            assert stored.staged == {}, replica
            assert [e.append_id for e in stored.ledger] == ["ap:moved:0"]
        cluster.shutdown()


class TestFencing:
    def test_fenced_primary_cannot_commit(self):
        cluster = build_wp_cluster()
        client = cluster.client("pod1-rack1-h1")
        blob = b"w" * MB

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            yield from client.append("f", len(blob), blob)
            return meta

        meta = cluster.run(scenario())
        # primaryship moves (epoch bump); the old primary's local lease
        # cache is now a lie it must not be allowed to act on
        cluster.lease_manager.promote(meta.file_id, meta.replicas[1])
        old_primary_ds = cluster.dataservers[meta.primary]
        old_primary_ds._held_leases.drop(meta.file_id)

        def stale_commit():
            yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "push_data",
                meta.file_id, "ap:stale:0", len(blob), client.host_id, blob,
            )
            yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "commit_append",
                meta.file_id, "ap:stale:0", client.host_id, (),
            )

        from repro.rpc.errors import RemoteInvocationError

        with pytest.raises(RemoteInvocationError) as exc_info:
            cluster.run(stale_commit())
        assert isinstance(exc_info.value.remote_error, LeaseExpiredError)
        # nothing committed under the stale authority, and the fenced
        # push is not left staged (the client's retry re-pushes)
        assert old_primary_ds.file_size(meta.file_id) == len(blob)
        assert old_primary_ds.lease_fencings >= 1
        assert old_primary_ds._files[meta.file_id].staged == {}
        cluster.shutdown()

    def test_nameserver_rejects_stale_epoch_record(self):
        cluster = build_wp_cluster()
        client = cluster.client("pod1-rack1-h1")
        blob = b"v" * MB

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            yield from client.append("f", len(blob), blob)
            return meta

        meta = cluster.run(scenario())
        cluster.lease_manager.promote(meta.file_id, meta.replicas[1])
        with pytest.raises(StaleEpochError):
            cluster.nameserver.record_append("f", 2 * len(blob), 1, meta.primary)
        assert cluster.nameserver.fenced_records == 1
        assert cluster.nameserver.lookup("f")["size_bytes"] == len(blob)
        cluster.shutdown()

    def test_stale_relay_rejected_by_secondary(self):
        cluster = build_wp_cluster()
        client = cluster.client("pod1-rack1-h1")
        blob = b"u" * MB

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            yield from client.append("f", len(blob), blob)
            return meta

        meta = cluster.run(scenario())
        secondary = meta.replicas[1]
        # bump the secondary's observed epoch past the relayer's
        cluster.dataservers[secondary]._files[meta.file_id].epoch = 5

        def stale_relay():
            yield from cluster.fabric.invoke(
                meta.primary, secondary, "dataserver", "relay_append",
                meta.file_id, "ap:old:0", len(blob), meta.primary, blob,
                len(blob), 1,
            )

        from repro.rpc.errors import RemoteInvocationError

        with pytest.raises(RemoteInvocationError) as exc_info:
            cluster.run(stale_relay())
        assert isinstance(exc_info.value.remote_error, StaleEpochError)
        cluster.shutdown()


class TestReplicaRepair:
    def test_behind_secondary_catches_up_from_parent(self):
        cluster = build_wp_cluster()
        client = cluster.client("pod1-rack1-h1")
        blob1, blob2 = b"1" * MB, b"2" * MB

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            s1, s2 = meta.replicas[1], meta.replicas[2]
            # first commit deliberately relays only to s1 — s2 misses it
            yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "push_data",
                meta.file_id, "ap:cu:0", len(blob1), client.host_id, blob1,
            )
            yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "commit_append",
                meta.file_id, "ap:cu:0", client.host_id,
                (RelayNode(host=s1, path=None, est_bw_bps=0.0),),
            )
            assert cluster.dataservers[s2].file_size(meta.file_id) == 0
            # second commit fans out to both; s2 must repair itself first
            yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "push_data",
                meta.file_id, "ap:cu:1", len(blob2), client.host_id, blob2,
            )
            yield from cluster.fabric.invoke(
                client.host_id, meta.primary, "dataserver", "commit_append",
                meta.file_id, "ap:cu:1", client.host_id,
                tuple(
                    RelayNode(host=r, path=None, est_bw_bps=0.0)
                    for r in (s1, s2)
                ),
            )
            return meta

        meta = cluster.run(scenario())
        s2_ds = cluster.dataservers[meta.replicas[2]]
        assert s2_ds.file_size(meta.file_id) == len(blob1) + len(blob2)
        assert bytes(s2_ds._files[meta.file_id].payload) == blob1 + blob2
        assert [e.append_id for e in s2_ds.append_ledger(meta.file_id)] == [
            "ap:cu:0", "ap:cu:1",
        ]
        assert s2_ds.relays_caught_up == 1
        assert cluster.dataservers[meta.primary].catch_ups_served == 1
        cluster.shutdown()

    def test_diverged_tail_truncated_by_higher_epoch_relay(self):
        cluster = build_wp_cluster()
        client = cluster.client("pod1-rack1-h1")
        stale_blob, good_blob = b"s" * MB, b"g" * (2 * MB)

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            secondary = meta.replicas[1]
            # a since-fenced primary relayed an append that never acked
            yield from cluster.fabric.invoke(
                meta.primary, secondary, "dataserver", "relay_append",
                meta.file_id, "ap:dead:0", len(stale_blob), meta.primary,
                stale_blob, 0, 1,
            )
            # the current primary (epoch 2) relays its own first append
            yield from cluster.fabric.invoke(
                meta.primary, secondary, "dataserver", "relay_append",
                meta.file_id, "ap:live:0", len(good_blob), meta.primary,
                good_blob, 0, 2,
            )
            return meta

        meta = cluster.run(scenario())
        s_ds = cluster.dataservers[meta.replicas[1]]
        stored = s_ds._files[meta.file_id]
        assert stored.size_bytes == len(good_blob)
        assert bytes(stored.payload) == good_blob
        assert [e.append_id for e in stored.ledger] == ["ap:live:0"]
        assert "ap:dead:0" not in stored.applied_ids
        assert s_ds.truncations == 1
        cluster.shutdown()


class TestEpochPreferringRebuild:
    def test_stale_primary_rejoin_does_not_win_rebuild(self):
        """A pre-failover primary with a longer (diverged) tail must lose
        the rebuild vote to survivors that saw a higher epoch."""
        cluster = build_wp_cluster()
        client = cluster.client("pod1-rack1-h1")
        base, stale_extra, promoted_blob = b"B" * MB, b"X" * (2 * MB), b"P" * MB

        def scenario():
            meta = yield from client.create("f", chunk_bytes=4 * MB)
            yield from client.append("f", len(base), base)  # epoch 1 everywhere
            old_primary, s1, s2 = meta.replicas
            # the old primary applies an append that never fully acks
            # (relays lost): its local tail is now longer than anyone's
            yield from cluster.fabric.invoke(
                client.host_id, old_primary, "dataserver", "relay_append",
                meta.file_id, "ap:lost:0", len(stale_extra), client.host_id,
                stale_extra, len(base), 1,
            )
            # failover: s1 is promoted (epoch 2) and commits an append
            # that reaches the survivors but not the old primary
            cluster.lease_manager.promote(meta.file_id, s1)
            yield from cluster.fabric.invoke(
                client.host_id, s1, "dataserver", "push_data",
                meta.file_id, "ap:new:0", len(promoted_blob), client.host_id,
                promoted_blob,
            )
            yield from cluster.fabric.invoke(
                client.host_id, s1, "dataserver", "commit_append",
                meta.file_id, "ap:new:0", client.host_id,
                (RelayNode(host=s2, path=None, est_bw_bps=0.0),),
            )
            return meta

        meta = cluster.run(scenario())
        old_primary, s1, _ = meta.replicas
        assert cluster.dataservers[old_primary].file_size(meta.file_id) == (
            len(base) + len(stale_extra)
        )  # the stale replica really is the largest
        survivor_size = len(base) + len(promoted_blob)
        assert cluster.dataservers[s1].file_size(meta.file_id) == survivor_size

        # unexpected nameserver restart: rebuild from dataserver scans
        def rebuild():
            count = yield from cluster.nameserver.rebuild_from_dataservers(
                cluster.fabric,
                cluster.nameserver_host,
                sorted(cluster.dataservers),
            )
            return count

        assert cluster.run(rebuild()) == 1
        rebuilt = cluster.nameserver.lookup("f")
        # epoch preference: the promoted survivors' size wins, despite the
        # stale primary's longer tail and its metadata primary flag
        assert rebuilt["size_bytes"] == survivor_size
        cluster.shutdown()


class TestLeaseFaultsAndFailover:
    def test_lease_expire_fault_bumps_epoch_but_appends_survive(self):
        cluster = build_wp_cluster(
            retry=FAILOVER_RETRY, replica_manager=True
        )
        client = cluster.client("pod1-rack1-h1")
        blob = b"e" * MB

        def setup():
            meta = yield from client.create("f", chunk_bytes=8 * MB)
            yield from client.append("f", len(blob), blob)
            return meta

        proc = cluster.spawn(setup())
        cluster.loop.run(until=1.0)
        assert proc.exception is None
        meta = proc.result

        injector = cluster.inject_faults(
            FaultPlan((FaultEvent(2.0, "lease_expire", meta.primary),))
        )
        cluster.loop.run(until=2.5)  # the revocation has landed

        def more_appends():
            for _ in range(3):
                yield from client.append("f", len(blob), blob)

        proc2 = cluster.spawn(more_appends())
        cluster.loop.run(until=40.0)
        assert proc2.exception is None
        assert injector.events_applied == 1
        assert cluster.lease_manager.expirations >= 1
        # the primary re-acquired after revocation: epoch bumped past 1
        assert cluster.lease_manager.current_epoch(meta.file_id) >= 2
        # all four appends exactly once, on every replica
        for ledger in ledgers_of(cluster, meta).values():
            assert len(ledger) == 4
            assert len({e.append_id for e in ledger}) == 4
        assert cluster.dataservers[meta.primary].file_size(meta.file_id) == (
            4 * len(blob)
        )
        cluster.shutdown()

    def test_primary_crash_mid_appends_preserves_ledger_exactly_once(self):
        """The acceptance storm: the primary dies (and its leases are
        revoked) while appends are in flight; a survivor is promoted with
        a bumped epoch; every acked append lands exactly once."""
        cluster = build_wp_cluster(
            retry=FAILOVER_RETRY, replica_manager=True
        )
        writers = [cluster.client("pod1-rack1-h0"), cluster.client("pod1-rack1-h1")]
        blob = b"k" * (1 * MB)
        per_writer = 3

        def setup():
            meta = yield from writers[0].create("f", chunk_bytes=32 * MB)
            return meta

        setup_proc = cluster.spawn(setup())
        cluster.loop.run(until=0.25)
        assert setup_proc.exception is None
        meta = setup_proc.result

        # kill the actual primary mid-run and revoke its leases; it
        # restarts later as a stale rejoiner
        injector = cluster.inject_faults(
            FaultPlan(
                (
                    FaultEvent(0.4, "dataserver_crash", meta.primary, 15.0),
                    FaultEvent(0.4, "lease_expire", meta.primary),
                )
            )
        )

        procs = []
        for writer in writers:
            def work(w=writer):
                sizes = []
                for _ in range(per_writer):
                    size = yield from w.append("f", len(blob), blob)
                    sizes.append(size)
                return sizes

            procs.append(cluster.spawn(work()))
        cluster.loop.run(until=120.0)
        for proc in procs:
            assert proc.exception is None, proc.exception

        assert injector.events_applied == 3  # crash + lease_expire + restart
        current = cluster.nameserver.lookup("f")
        assert meta.primary != current["replicas"][0]  # a survivor was promoted
        assert cluster.lease_manager.current_epoch(meta.file_id) >= 2

        total_appends = per_writer * len(writers)
        expected_size = total_appends * len(blob)
        assert current["size_bytes"] == expected_size
        reference = None
        for replica in current["replicas"]:
            ds = cluster.dataservers[replica]
            ledger = ds.append_ledger(meta.file_id)
            acked_portion = [e for e in ledger if e.offset < expected_size]
            ids = [e.append_id for e in acked_portion]
            assert len(ids) == total_appends
            assert len(set(ids)) == total_appends  # exactly once
            # compare placement, not the per-entry epoch: the epoch is
            # local provenance and differs between replicas that heard
            # the old primary and ones repaired after promotion
            placement = [(e.append_id, e.offset, e.length) for e in acked_portion]
            if reference is None:
                reference = placement
            else:
                assert placement == reference  # same order, same offsets
            assert ds.file_size(meta.file_id) >= expected_size
        # at least one retry actually happened (the crash was mid-workload)
        assert sum(w.append_retries for w in writers) >= 1
        cluster.shutdown()
