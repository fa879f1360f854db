"""Unit tests for the span/event recorder."""

from repro.telemetry import Tracer, build_spans


def test_instant_records_point_event():
    tracer = Tracer()
    tracer.instant(1.5, "fault.link_down", "fault", target="E1->A1")
    assert len(tracer) == 1
    event = tracer.events[0]
    assert (event.ts, event.ph, event.cat, event.name) == (
        1.5, "i", "fault", "fault.link_down"
    )
    assert event.args == {"target": "E1->A1"}


def test_instant_without_args_stores_none():
    tracer = Tracer()
    tracer.instant(0.0, "tick", "sim")
    assert tracer.events[0].args is None


def test_async_span_pairing_by_cat_and_id():
    tracer = Tracer()
    tracer.begin(1.0, "transfer", "transfer", "f1")
    tracer.begin(2.0, "transfer", "transfer", "f2")
    tracer.end(4.0, "transfer", "transfer", "f2", outcome="completed")
    tracer.end(9.0, "transfer", "transfer", "f1", outcome="completed")
    spans = build_spans(tracer.events)
    assert [(s.span_id, s.duration) for s in spans] == [("f1", 8.0), ("f2", 2.0)]
    assert spans[0].args == {"outcome": "completed"}


def test_unmatched_begin_stays_open():
    tracer = Tracer()
    tracer.begin(1.0, "transfer", "transfer", "f1")
    tracer.begin(2.0, "transfer", "transfer", "f2")
    tracer.end(3.0, "transfer", "transfer", "f1")
    spans = build_spans(tracer.events)
    assert [(s.span_id, s.end) for s in spans] == [("f1", 3.0), ("f2", None)]


def test_next_id_is_deterministic_per_prefix():
    tracer = Tracer()
    assert [tracer.next_id("read") for _ in range(3)] == ["read0", "read1", "read2"]
    assert tracer.next_id("rpc") == "rpc0"
    assert tracer.next_id("read") == "read3"
