"""Flight recorder tests: ring capture, fault-storm dumps, causal links."""

import json

import pytest

import repro.telemetry as telemetry
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.faults import FaultEvent, FaultPlan
from repro.telemetry import (
    FlightRecorder,
    Tracer,
    read_flight_dump,
    write_flight_dump,
)


def test_ring_keeps_open_spans_beyond_capacity():
    tracer = Tracer()
    recorder = FlightRecorder(capacity_per_track=4)
    tracer.add_observer(recorder.record)
    tracer.begin(0.0, "op", "c", "root", track="t", trace="root")
    for i in range(50):
        tracer.instant(float(i), "tick", "c", track="t")
    dump = recorder.trigger(50.0, "test")
    # The ring evicted early ticks but the open root span survives.
    assert any(e.ph == "b" and e.id == "root" for e in dump.events)
    assert len([e for e in dump.events if e.name == "tick"]) == 4


def test_dump_roundtrip(tmp_path):
    recorder = FlightRecorder()
    tracer = Tracer()
    tracer.add_observer(recorder.record)
    tracer.begin(1.0, "op", "c", "s1", track="t", trace="s1")
    dump = recorder.trigger(2.0, "unit", detail=7)
    path = write_flight_dump(dump, tmp_path / "flight.json")
    loaded = read_flight_dump(path)
    assert loaded.reason == "unit"
    assert loaded.details == {"detail": 7}
    assert [e.to_json_dict() for e in loaded.events] == [
        e.to_json_dict() for e in dump.events
    ]
    # The on-disk form is stable JSON (sorted keys).
    assert json.loads(path.read_text())["reason"] == "unit"


def crashed_append_run(seed=3):
    """Appends racing a primary crash; returns (tel, aborted, committed)."""
    with telemetry.session() as tel:
        tel.attach_flight()
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
                metadatas[f"/flight/f{i}"] = yield from client.create(
                    f"/flight/f{i}", replication=3
                )

        cluster.run(setup())
        victim = metadatas["/flight/f0"].replicas[0]
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


def test_fault_storm_dump_links_every_aborted_operation():
    tel, aborted, committed = crashed_append_run()
    # The crashed primary takes down at least the append to its file.
    assert "/flight/f0" in aborted
    assert committed  # other files' pipelines survive
    dumps = tel.flight.dumps
    assert [d.reason for d in dumps][:1] == ["fault.dataserver_crash"]
    crash_dump = dumps[0]

    # Map each aborted file to its append root span (begin event args).
    begins = [
        e for e in tel.tracer.events
        if e.ph == "b" and e.name == "client.append"
    ]
    by_file = {e.args["file"]: e for e in begins}
    for name in aborted:
        root = by_file[name]
        trace_id = root.args["trace"]
        assert trace_id in crash_dump.trace_ids()
        captured = crash_dump.events_of_trace(trace_id)
        # The dump holds the (still-open) root and at least one child
        # span causally linked to it via its parent reference.
        assert any(
            e.id == root.id and e.ph == "b" for e in captured
        )
        assert any(
            e.args and e.args.get("parent") is not None for e in captured
        )


def test_flight_dump_deterministic_across_same_seed_runs():
    tel_a, aborted_a, _ = crashed_append_run()
    tel_b, aborted_b, _ = crashed_append_run()
    assert aborted_a == aborted_b
    dumps_a = [d.to_json_dict() for d in tel_a.flight.dumps]
    dumps_b = [d.to_json_dict() for d in tel_b.flight.dumps]
    assert dumps_a == dumps_b
