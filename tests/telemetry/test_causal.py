"""End-to-end causal tracing tests: propagation, topology, critical path."""

import math

import repro.telemetry as telemetry
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core.fanout import static_chain_plan
from repro.faults import FaultEvent, FaultPlan
from repro.fs.retry import RetryPolicy
from repro.telemetry import (
    build_trees,
    critical_path,
    operations,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)


def pipelined_cluster(seed=5, fanout="chain"):
    return Cluster(
        ClusterConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=2,
            seed=seed,
            fanout=fanout,
            retry=RetryPolicy(),
        )
    )


def one_traced_append(seed=5, fanout="chain", size=4 * 1024 * 1024):
    """One pipelined 3-replica append under telemetry; returns details."""
    with telemetry.session() as tel:
        cluster = pipelined_cluster(seed=seed, fanout=fanout)
        writer = sorted(cluster.topology.hosts)[-1]
        client = cluster.client(writer)

        def setup():
            metadata = yield from client.create("/causal/f", replication=3)
            return metadata

        metadata = cluster.run(setup())
        start = cluster.loop.now
        cluster.run(client.append("/causal/f", size))
        latency = cluster.loop.now - start
        cluster.shutdown()
    return tel, metadata, writer, latency


def span_forest(tel):
    roots, problems = build_trees(tel.tracer.events)
    assert problems == []
    return roots


def descendants_by_name(root, name):
    return [s for s in root.walk() if s is not root and s.name == name]


def ancestor_chain(root, target):
    """Spans from ``root`` down to (excluding) ``target``, or None."""

    def walk(span, path):
        if span is target:
            return path
        for child in span.children:
            found = walk(child, path + [span])
            if found is not None:
                return found
        return None

    return walk(root, [])


def test_same_seed_propagation_runs_export_byte_identical_jsonl():
    tel_a, _, _, _ = one_traced_append()
    tel_b, _, _, _ = one_traced_append()
    a, b = to_jsonl(tel_a.tracer), to_jsonl(tel_b.tracer)
    assert a == b
    assert '"trace":' in a and '"parent":' in a


def test_chain_append_yields_one_tree_with_planned_parentage():
    """The trace tree of a chain append mirrors FanoutPlan.edges()."""
    tel, metadata, writer, _ = one_traced_append(fanout="chain")
    roots = span_forest(tel)
    ops = operations(roots, "client.append")
    assert len(ops) == 1
    (root,) = ops
    primary = metadata.replicas[0]
    plan = static_chain_plan(writer, primary, metadata.replicas[1:])

    # Exactly one commit, on the primary, inside this tree.
    commits = descendants_by_name(root, "ds.commit_append")
    assert [c.args["host"] for c in commits] == [primary]

    # One ds.relay per planned edge, each hosted on the edge's child and
    # causally under a ds.* stage hosted on the edge's parent.
    relays = {s.args["host"]: s for s in descendants_by_name(root, "ds.relay")}
    edges = plan.edges()
    assert len(edges) == len(metadata.replicas) - 1 == 2
    assert set(relays) == {child for _, child in edges}
    for parent_host, child_host in edges:
        chain = ancestor_chain(root, relays[child_host])
        assert chain is not None
        stage_hosts = [
            s.args.get("host") for s in chain if s.cat == "ds"
        ]
        assert stage_hosts[-1] == parent_host

    # Every span in the tree carries the root's trace id.
    for span in root.walk():
        assert span.trace_id == root.trace_id


def test_critical_path_sums_to_client_observed_latency():
    tel, _, _, latency = one_traced_append()
    (root,) = operations(span_forest(tel), "client.append")
    segments = critical_path(root)
    total = sum(seg.duration for seg in segments)
    assert math.isclose(total, root.duration)
    assert math.isclose(root.duration, latency)
    # The data-plane stages dominate the path of a replicated append.
    names = {seg.name for seg in segments}
    assert "ds.push_data" in names
    assert any(n in names for n in ("ds.relay", "ds.commit_append"))
    # Segments tile [start, end] exactly: no gaps, no overlaps.
    cursor = root.start
    for seg in segments:
        assert math.isclose(seg.start, cursor)
        cursor = seg.end
    assert math.isclose(cursor, root.end)


def test_auto_fanout_tree_is_also_causally_complete():
    tel, metadata, _, _ = one_traced_append(fanout="auto")
    (root,) = operations(span_forest(tel), "client.append")
    relays = descendants_by_name(root, "ds.relay")
    assert {s.args["host"] for s in relays} == set(metadata.replicas[1:])
    append_id = root.args["append"]
    for span in relays:
        assert span.args["append"] == append_id


def test_chrome_export_carries_flow_arrows_and_validates():
    tel, _, _, _ = one_traced_append()
    payload = to_chrome_trace(tel.tracer)
    assert validate_chrome_trace(payload) == []
    starts = [e for e in payload["traceEvents"] if e.get("ph") == "s"]
    finishes = [e for e in payload["traceEvents"] if e.get("ph") == "f"]
    assert starts and len(starts) == len(finishes)
    assert all(e["bp"] == "e" for e in finishes)


def test_validator_rejects_dangling_parent_reference():
    tracer = telemetry.Tracer()
    tracer.begin(1.0, "op", "c", "s1", track="t",
                 trace="s1", parent="nonexistent")
    tracer.end(2.0, "op", "c", "s1", track="t")
    problems = validate_chrome_trace(to_chrome_trace(tracer))
    assert any("dangling parent" in p for p in problems)


def test_analyze_reports_dangling_parent_as_problem():
    tracer = telemetry.Tracer()
    tracer.begin(1.0, "op", "c", "s1", track="t",
                 trace="s1", parent="ghost")
    tracer.end(2.0, "op", "c", "s1", track="t")
    roots, problems = build_trees(tracer.events)
    assert len(roots) == 1  # dangling spans still surface as roots
    assert any("ghost" in p for p in problems)


def test_render_report_names_client_observed_latency():
    tel, _, _, _ = one_traced_append()
    report = telemetry.render_report(tel.tracer.events, op="client.append")
    assert "client-observed latency" in report
    assert "ds.push_data" in report


def crashed_append_run(seed=3):
    """Appends racing a primary crash; returns (tel, aborted, committed)."""
    with telemetry.session() as tel:
        cluster = Cluster(
            ClusterConfig(
                pods=2,
                racks_per_pod=2,
                hosts_per_rack=2,
                seed=seed,
            )
        )
        hosts = sorted(cluster.topology.hosts)
        client = cluster.client(hosts[-1])
        metadatas = {}

        def setup():
            for i in range(3):
                metadatas[f"/crash/f{i}"] = yield from client.create(
                    f"/crash/f{i}", replication=3
                )

        cluster.run(setup())
        victim = metadatas["/crash/f0"].replicas[0]
        t0 = cluster.loop.now
        cluster.inject_faults(
            FaultPlan(
                events=(
                    FaultEvent(time=t0 + 0.01, kind="dataserver_crash",
                               target=victim),
                    FaultEvent(time=t0 + 0.02, kind="rpc_delay_spike",
                               magnitude=2.0, duration=0.1),
                )
            )
        )
        procs = {
            name: cluster.spawn(
                client.append(name, 8 * 1024 * 1024), name=f"ap-{name}"
            )
            for name in sorted(metadatas)
        }
        cluster.run_loop()
        cluster.shutdown()
    aborted = {n for n, p in procs.items() if p.exception is not None}
    committed = set(procs) - aborted
    return tel, aborted, committed


def test_fault_storm_trace_links_every_aborted_operation():
    """Every append the crash aborts is open at the fault's instant in
    the trace, with its root span and a causally linked child."""
    tel, aborted, committed = crashed_append_run()
    # The crashed primary takes down at least the append to its file.
    assert "/crash/f0" in aborted
    assert committed  # other files' pipelines survive
    crashes = [
        e.ts for e in tel.tracer.events
        if e.ph == "i" and e.name == "fault.dataserver_crash"
    ]
    assert len(crashes) == 1
    crash_ts = crashes[0]

    roots, _ = build_trees(tel.tracer.events)
    by_file = {
        root.args["file"]: root for root in roots
        if root.name == "client.append"
    }
    for name in aborted:
        root = by_file[name]
        assert root.start < crash_ts
        assert root.end is None or root.end >= crash_ts
        assert any(child.parent_id == root.span_id for child in root.children)


def test_disabled_path_has_no_trace_context():
    """Without an installed session appends emit nothing and leak no ctx."""
    from repro.sim import instrument

    assert instrument.TELEMETRY is None
    cluster = pipelined_cluster()
    client = cluster.client(sorted(cluster.topology.hosts)[-1])

    def body():
        yield from client.create("/causal/f", replication=3)
        yield from client.append("/causal/f", 1024 * 1024)

    cluster.run(body())
    cluster.shutdown()
    assert instrument.TRACE_CTX is None
