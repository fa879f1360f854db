"""Exporter tests: JSONL golden/roundtrip, Chrome trace schema, Prometheus."""

import json

from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    read_jsonl,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)


def make_trace():
    tracer = Tracer()
    tracer.instant(0.5, "fault.link_down", "fault", target="E1->A1")
    tracer.begin(1.0, "transfer", "transfer", "f1", track="transfers", size=8.0)
    tracer.counter(1.5, "tracked_flows", {"value": 1.0})
    tracer.end(2.0, "transfer", "transfer", "f1", track="transfers",
               outcome="completed")
    return tracer


def test_jsonl_golden():
    assert to_jsonl(make_trace()) == (
        '{"args":{"target":"E1->A1"},"cat":"fault","name":"fault.link_down",'
        '"ph":"i","track":"sim","ts":0.5}\n'
        '{"args":{"size":8.0},"cat":"transfer","id":"f1","name":"transfer",'
        '"ph":"b","track":"transfers","ts":1.0}\n'
        '{"args":{"value":1.0},"cat":"metric","name":"tracked_flows","ph":"C",'
        '"track":"metrics","ts":1.5}\n'
        '{"args":{"outcome":"completed"},"cat":"transfer","id":"f1",'
        '"name":"transfer","ph":"e","track":"transfers","ts":2.0}\n'
    )


def test_jsonl_roundtrip(tmp_path):
    tracer = make_trace()
    path = write_jsonl(tracer, tmp_path / "trace.jsonl")
    events = read_jsonl(path)
    assert [e.to_json_dict() for e in events] == [
        e.to_json_dict() for e in tracer.events
    ]
    # Re-serializing the parsed events is byte-identical.
    assert to_jsonl(events) == path.read_text()


def test_chrome_trace_structure():
    payload = to_chrome_trace(make_trace(), registry=MetricsRegistry())
    events = payload["traceEvents"]
    # process_name + 3 thread_name metadata (sim, transfers, metrics) + 4.
    assert [e["ph"] for e in events] == ["M", "M", "i", "M", "b", "M", "C", "e"]
    thread_names = [e["args"]["name"] for e in events if e["name"] == "thread_name"]
    assert thread_names == ["sim", "transfers", "metrics"]
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["s"] == "t"
    assert instant["ts"] == 0.5e6  # sim seconds -> microseconds
    begin = next(e for e in events if e["ph"] == "b")
    assert begin["id"] == "f1"
    assert payload["otherData"]["clock"] == "simulated-seconds-x1e6"


def test_chrome_trace_validates_clean(tmp_path):
    path = write_chrome_trace(make_trace(), tmp_path / "trace.json")
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == []


def test_validate_catches_problems():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    problems = validate_chrome_trace(
        {
            "traceEvents": [
                {"name": "x", "ph": "?", "pid": 1, "tid": 1},
                {"name": "y", "ph": "b", "pid": 1, "tid": 1, "ts": 0, "cat": "c"},
                {"name": "z", "ph": "E", "pid": 1, "tid": 1, "ts": 0, "cat": "c"},
            ]
        }
    )
    assert any("bad phase" in p for p in problems)
    assert any("async event without 'id'" in p for p in problems)
    assert "event 2 ('z'): bad phase 'E'" in problems


def test_validate_reports_stray_sync_span_phase():
    problems = validate_chrome_trace(
        {"traceEvents": [
            {"name": "x", "ph": "B", "pid": 1, "tid": 3, "ts": 0, "cat": "c"}
        ]}
    )
    assert problems == ["event 0 ('x'): bad phase 'B'"]


def test_write_prometheus(tmp_path):
    registry = MetricsRegistry()
    registry.counter("reads_total", lambda: 2)
    path = write_prometheus(registry, tmp_path / "metrics.prom")
    assert path.read_text() == "# TYPE reads_total counter\nreads_total 2\n"
