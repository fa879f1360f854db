"""Tests for ``python -m repro.telemetry summarize``."""

import pytest

from repro.telemetry import Tracer, write_jsonl
from repro.telemetry.cli import main


@pytest.fixture()
def trace_file(tmp_path):
    tracer = Tracer()
    tracer.instant(0.5, "fault.link_down", "fault", target="E1->A1")
    tracer.begin(1.0, "transfer", "transfer", "f1", track="transfers")
    tracer.begin(2.0, "ns.lookup", "rpc", "rpc1", track="rpc")
    tracer.end(2.5, "ns.lookup", "rpc", "rpc1", track="rpc")
    tracer.end(9.0, "transfer", "transfer", "f1", track="transfers")
    tracer.begin(3.0, "transfer", "transfer", "f2", track="transfers")  # open
    return write_jsonl(tracer, tmp_path / "trace.jsonl")


def test_summarize(trace_file, capsys):
    assert main(["summarize", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "events: 6" in out
    assert "sim time range: 0.500000s .. 9.000000s" in out
    assert "phases: b=3, e=2, i=1" in out
    assert "async spans: 2 closed" in out
    assert "async spans left open: 1" in out


def test_missing_file_errors():
    with pytest.raises(SystemExit, match="no such trace file"):
        main(["summarize", "/nonexistent/trace.jsonl"])
