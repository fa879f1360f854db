"""Property test: append ledgers survive arbitrary failover interleavings.

Hypothesis drives the knobs an adversary controls — append sizes from two
concurrent writers, when the primary dies, whether its leases are also
revoked at that instant — and the property asserts the write pipeline's
contract regardless: every *acknowledged* append lands exactly once, in
the same order at the same offsets, on every current replica.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.fs.retry import RetryPolicy

MB = 1024 * 1024

DEEP_RETRY = RetryPolicy(
    max_attempts=40,
    base_delay=0.05,
    multiplier=2.0,
    max_delay=2.0,
    jitter=0.5,
    operation_deadline=None,
    rpc_timeout=None,
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    sizes_a=st.lists(
        st.integers(min_value=64 * 1024, max_value=2 * MB), min_size=1, max_size=3
    ),
    sizes_b=st.lists(
        st.integers(min_value=64 * 1024, max_value=2 * MB), min_size=1, max_size=3
    ),
    crash_at=st.floats(min_value=0.3, max_value=3.0),
    revoke_leases=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_failover_interleavings_preserve_append_ledger(
    sizes_a, sizes_b, crash_at, revoke_leases, seed
):
    cluster = Cluster(
        ClusterConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=2,
            scheme="mayflower",
            store_payload=True,
            seed=seed,
            lease_duration=12.0,
            retry=DEEP_RETRY,
            enable_replica_manager=True,
            heartbeat_interval=2.0,
            heartbeat_timeout=5.0,
            repair_interval=3.0,
        )
    )
    try:
        writer_a = cluster.client("pod0-rack0-h0")
        writer_b = cluster.client("pod1-rack1-h1")

        def setup():
            meta = yield from writer_a.create("f", chunk_bytes=64 * MB)
            return meta

        setup_proc = cluster.spawn(setup())
        cluster.loop.run(until=0.25)
        assert setup_proc.exception is None
        meta = setup_proc.result

        events = [
            FaultEvent(crash_at, "dataserver_crash", meta.primary, 12.0)
        ]
        if revoke_leases:
            events.append(FaultEvent(crash_at, "lease_expire", meta.primary))
        cluster.inject_faults(FaultPlan(tuple(events)))

        procs = []
        for writer, sizes in ((writer_a, sizes_a), (writer_b, sizes_b)):

            def work(w=writer, plan=tuple(sizes)):
                for size in plan:
                    yield from w.append("f", size, b"x" * size)

            procs.append(cluster.spawn(work()))
        cluster.loop.run(until=150.0)
        for proc in procs:
            assert proc.exception is None, proc.exception

        # --- the property -----------------------------------------
        expected_size = sum(sizes_a) + sum(sizes_b)
        current = cluster.nameserver.lookup("f")
        assert current["size_bytes"] == expected_size

        total = len(sizes_a) + len(sizes_b)
        reference = None
        for replica in current["replicas"]:
            ds = cluster.dataservers[replica]
            ledger = ds.append_ledger(meta.file_id)
            acked = [e for e in ledger if e.offset < expected_size]
            ids = [e.append_id for e in acked]
            # every acked append, exactly once
            assert len(ids) == total
            assert len(set(ids)) == total
            # contiguous: each entry starts where the previous ended
            offset = 0
            for entry in acked:
                assert entry.offset == offset
                offset += entry.length
            assert offset == expected_size
            # identical order and placement on every replica (the
            # per-entry epoch is provenance — it records which
            # authority applied the entry *locally* and may
            # legitimately differ between a replica that heard the
            # pre-crash primary and one repaired after promotion)
            placement = [(e.append_id, e.offset, e.length) for e in acked]
            if reference is None:
                reference = placement
            else:
                assert placement == reference
            assert ds.file_size(meta.file_id) >= expected_size
    finally:
        cluster.shutdown()
