"""Write-path benchmark — contention throughput and storm survival.

Two experiments, one JSON artifact (``BENCH_write_path.json``):

* **Contention** — eight writers append concurrently through the
  two-phase pipeline on the same fabric twice: Mayflower (Flowserver
  plans each append's replication fan-out from live link costs) and an
  ECMP baseline relaying over the static placement chain.  Contract:
  co-designed fan-out sustains at least the baseline's throughput.
* **Storm** — the Mayflower variant replays a seeded fault storm that
  crashes dataservers and revokes primary leases while appends are in
  flight.  Contract: every acknowledged append survives exactly once on
  every current replica — the lease/epoch machinery turns a storm into
  retries, never into lost or doubled bytes.
"""

import json
from pathlib import Path

from conftest import attach_report

from repro.cluster import Cluster, ClusterConfig
from repro.faults import StormSpec, build_storm
from repro.fs.retry import IMMEDIATE_FAILOVER, RetryPolicy
from repro.sim.randomness import RandomStreams

MB = 1024 * 1024

#: Appends per writer / append size for the contention runs.
APPENDS_PER_WRITER = 5
APPEND_BYTES = 4 * MB

#: Deep budget so storm-tossed appends ride out multi-second outages.
STORM_RETRY = RetryPolicy(
    max_attempts=60,
    base_delay=0.05,
    multiplier=2.0,
    max_delay=2.0,
    jitter=0.5,
    operation_deadline=None,
    rpc_timeout=30.0,
)


def _build_cluster(scheme, fanout, seed, retry=IMMEDIATE_FAILOVER, replica_manager=False):
    return Cluster(
        ClusterConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=2,
            scheme=scheme,
            seed=seed,
            fanout=fanout,
            retry=retry,
            enable_replica_manager=replica_manager,
            heartbeat_interval=2.0,
            heartbeat_timeout=5.0,
            repair_interval=3.0,
        )
    )


def _run_contention(scheme, fanout, seed):
    cluster = _build_cluster(scheme, fanout, seed)
    try:
        finish_times = []
        start = None
        hosts = sorted(cluster.dataservers)
        writers = [(cluster.client(h), f"file-{h}") for h in hosts]

        def setup():
            for writer, name in writers:
                yield from writer.create(name, chunk_bytes=64 * MB)

        setup_proc = cluster.spawn(setup())
        cluster.run_loop(until=1.0)
        assert setup_proc.exception is None, setup_proc.exception
        start = cluster.loop.now

        procs = []
        for writer, name in writers:

            def work(w=writer, file_name=name):
                for _ in range(APPENDS_PER_WRITER):
                    yield from w.append(file_name, APPEND_BYTES)
                finish_times.append(cluster.loop.now)

            procs.append(cluster.spawn(work()))
        cluster.run_loop(until=start + 600.0)
        for proc in procs:
            assert proc.exception is None, proc.exception
        assert len(finish_times) == len(writers)

        elapsed = max(finish_times) - start
        total_bytes = len(writers) * APPENDS_PER_WRITER * APPEND_BYTES
        fs = cluster.flowserver
        return {
            "scheme": scheme,
            "fanout": fanout,
            "writers": len(writers),
            "appends": len(writers) * APPENDS_PER_WRITER,
            "append_mb": APPEND_BYTES / MB,
            "sim_seconds": elapsed,
            "throughput_mbps": (total_bytes / MB) / elapsed,
            "fanout_plans": {
                "tree": fs.fanout_tree_plans if fs is not None else 0,
                "chain": fs.fanout_chain_plans if fs is not None else 0,
                "static_fallback": (
                    fs.fanout_static_fallbacks if fs is not None else 0
                ),
            },
        }
    finally:
        cluster.shutdown()


def _run_storm(seed):
    cluster = _build_cluster(
        "mayflower", "auto", seed,
        retry=STORM_RETRY, replica_manager=True,
    )
    try:
        hosts = sorted(cluster.dataservers)
        writers = [(cluster.client(h), f"file-{h}") for h in hosts]

        def setup():
            for writer, name in writers:
                yield from writer.create(name, chunk_bytes=64 * MB)

        setup_proc = cluster.spawn(setup())
        cluster.run_loop(until=1.0)
        assert setup_proc.exception is None, setup_proc.exception
        start = cluster.loop.now

        plan = build_storm(
            cluster.topology,
            RandomStreams(seed).faults(),
            StormSpec(
                start=start + 0.2,
                window=15.0,
                link_failures=2,
                switch_failures=1,
                dataserver_crashes=2,
                lease_expiries=3,
                stats_poll_outages=1,
                mean_outage=4.0,
                protected_hosts=[cluster.nameserver_host],
            ),
        )
        injector = cluster.inject_faults(plan)

        procs = []
        for writer, name in writers:

            def work(w=writer, file_name=name):
                for _ in range(APPENDS_PER_WRITER):
                    yield from w.append(file_name, APPEND_BYTES)

            procs.append(cluster.spawn(work()))
        cluster.run_loop(until=start + 600.0)
        for proc in procs:
            assert proc.exception is None, proc.exception

        # --- exactly-once ledger audit over every file ----------------
        expected_size = APPENDS_PER_WRITER * APPEND_BYTES
        files_audited = 0
        for _, name in writers:
            current = cluster.nameserver.lookup(name)
            assert current["size_bytes"] == expected_size, name
            file_id = current["file_id"]
            reference = None
            for replica in current["replicas"]:
                ledger = cluster.dataservers[replica].append_ledger(file_id)
                acked = [e for e in ledger if e.offset < expected_size]
                ids = [e.append_id for e in acked]
                assert len(ids) == APPENDS_PER_WRITER, (name, replica)
                assert len(set(ids)) == APPENDS_PER_WRITER, (name, replica)
                placement = [(e.append_id, e.offset, e.length) for e in acked]
                if reference is None:
                    reference = placement
                else:
                    assert placement == reference, (name, replica)
            files_audited += 1

        total_retries = sum(w.append_retries for w, _ in writers)
        lm = cluster.lease_manager
        return {
            "storm_events": len(plan.expanded()),
            "events_applied": injector.events_applied,
            "files_audited": files_audited,
            "appends_acked": files_audited * APPENDS_PER_WRITER,
            "append_retries": total_retries,
            "lease_grants": lm.grants,
            "lease_expirations": lm.expirations,
            "lease_fencing_rejections": lm.fencing_rejections,
            "promotions": lm.promotions,
            "nameserver_fenced_records": cluster.nameserver.fenced_records,
            "exactly_once": True,
        }
    finally:
        cluster.shutdown()


def _run_all(seed):
    return {
        "contention": {
            "mayflower": _run_contention("mayflower", "auto", seed),
            "ecmp_chain": _run_contention("hdfs-ecmp", "chain", seed),
        },
        "storm": _run_storm(seed),
    }


def _render(result):
    lines = ["Write path — contention throughput and storm survival"]
    for label, row in result["contention"].items():
        plans = row["fanout_plans"]
        lines.append(
            f"  {label:<10} {row['throughput_mbps']:>8.1f} MB/s over "
            f"{row['sim_seconds']:.2f} s sim "
            f"(plans: {plans['tree']} tree / {plans['chain']} chain / "
            f"{plans['static_fallback']} fallback)"
        )
    storm = result["storm"]
    lines.append(
        f"  storm      {storm['appends_acked']} appends acked exactly-once "
        f"across {storm['files_audited']} files; "
        f"{storm['append_retries']} retries, "
        f"{storm['lease_expirations']} lease revocations, "
        f"{storm['promotions']} promotions"
    )
    return "\n".join(lines)


def test_write_path_throughput_and_storm(benchmark, bench_scale):
    seed = bench_scale["seed"]
    result = benchmark.pedantic(_run_all, args=(seed,), iterations=1, rounds=1)
    attach_report(benchmark, _render(result))

    out_path = Path("BENCH_write_path.json")
    out_path.write_text(json.dumps({"seed": seed, **result}, indent=2) + "\n")

    mayflower = result["contention"]["mayflower"]
    ecmp = result["contention"]["ecmp_chain"]
    # Contract 1: SDN-planned fan-out sustains at least static-chain
    # ECMP throughput under contention.
    assert mayflower["throughput_mbps"] >= ecmp["throughput_mbps"], (
        mayflower["throughput_mbps"], ecmp["throughput_mbps"],
    )
    # Contract 2: the Flowserver actually planned the Mayflower fan-outs.
    plans = mayflower["fanout_plans"]
    assert plans["tree"] + plans["chain"] + plans["static_fallback"] > 0

    # Contract 3: the storm did real damage and every append survived it.
    storm = result["storm"]
    assert storm["events_applied"] > 0
    assert storm["lease_expirations"] > 0
    assert storm["exactly_once"]
