"""Unit tests for flow tables."""

from repro.sdn import FlowTable


def test_install_and_lookup():
    table = FlowTable("s1")
    table.install("f1", "s1->s2", now=1.0)
    assert table.lookup("f1") == "s1->s2"
    assert [e.flow_id for e in table.entries()] == ["f1"]


def test_lookup_miss_returns_none():
    table = FlowTable("s1")
    assert table.lookup("ghost") is None


def test_overwrite_updates_entry():
    table = FlowTable("s1")
    table.install("f1", "s1->s2", now=1.0)
    table.install("f1", "s1->s3", now=2.0)
    assert table.lookup("f1") == "s1->s3"
    assert len(table.entries()) == 1


def test_remove():
    table = FlowTable("s1")
    table.install("f1", "s1->s2", now=1.0)
    assert table.remove("f1") is True
    assert table.remove("f1") is False
    assert table.lookup("f1") is None


def test_entries_sorted_by_flow_id():
    table = FlowTable("s1")
    table.install("b", "s1->s2", now=1.0)
    table.install("a", "s1->s3", now=2.0)
    assert [e.flow_id for e in table.entries()] == ["a", "b"]
    assert table.entries()[0].installed_at == 2.0
