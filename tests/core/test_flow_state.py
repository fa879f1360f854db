"""Unit tests for the Flowserver's flow state table and freeze discipline."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow_state import FlowStateTable, TrackedFlow


def make_flow(flow_id="f", links=("a", "b"), size=100.0, bw=10.0):
    return TrackedFlow(
        flow_id=flow_id,
        path_link_ids=tuple(links),
        size_bits=size,
        remaining_bits=size,
        bw_bps=bw,
    )


class TestTable:
    def test_add_and_get(self):
        table = FlowStateTable()
        flow = make_flow()
        table.add(flow)
        assert table.flows["f"] is flow
        assert "f" in table
        assert len(table) == 1

    def test_duplicate_add_rejected(self):
        table = FlowStateTable()
        table.add(make_flow())
        with pytest.raises(ValueError):
            table.add(make_flow())

    def test_remove_returns_flow_and_cleans_index(self):
        table = FlowStateTable()
        table.add(make_flow())
        removed = table.remove("f")
        assert removed is not None
        assert table.flows_on_link("a") == []
        assert table.remove("f") is None

    def test_flows_on_link(self):
        table = FlowStateTable()
        table.add(make_flow("f1", links=("a",)))
        table.add(make_flow("f2", links=("a", "b")))
        table.add(make_flow("f3", links=("c",)))
        assert [f.flow_id for f in table.flows_on_link("a")] == ["f1", "f2"]
        assert [f.flow_id for f in table.flows_on_link("b")] == ["f2"]
        assert table.flows_on_link("nope") == []

    def test_flows_on_path_dedups(self):
        table = FlowStateTable()
        table.add(make_flow("f1", links=("a", "b")))
        flows = table.flows_on_path(["a", "b"])
        assert [f.flow_id for f in flows] == ["f1"]


# Ids whose string order differs from their numeric order, and paths that
# list one link twice.
INDEX_IDS = ("mf9", "mf10", "mf100", "fanout-intent-3", "fanout-intent-12", "f")
INDEX_PATHS = (("a",), ("a", "b"), ("b", "a", "b"), ("c", "c"), ("a", "b", "c"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from(INDEX_IDS),
                          st.sampled_from(INDEX_PATHS)), max_size=30))
def test_link_index_matches_sorted_sets(steps):
    """The sorted-list index reads as ``sorted(set)`` did, after every
    add and remove, including removals of ids it does not hold."""
    table = FlowStateTable()
    model = {}
    for add, flow_id, links in steps:
        if add and flow_id not in table:
            table.add(make_flow(flow_id, links=links))
            for link_id in links:
                model.setdefault(link_id, set()).add(flow_id)
        elif not add:
            flow = table.remove(flow_id)
            for link_id in flow.path_link_ids if flow is not None else ():
                model[link_id].discard(flow_id)
        for link_id in "abc":
            got = [f.flow_id for f in table.flows_on_link(link_id)]
            assert got == sorted(model.get(link_id, ()))
        assert set(table._link_index) == {lid for lid, ids in model.items() if ids}


class TestFreezeDiscipline:
    def test_set_bw_freezes_until_expected_completion(self):
        table = FlowStateTable()
        table.add(make_flow(size=100.0, bw=10.0))
        table.set_bw("f", 20.0, now=50.0)
        flow = table.flows["f"]
        assert flow.bw_bps == 20.0
        assert flow.freezed
        assert flow.freeze_until == pytest.approx(55.0)  # 100 bits / 20 bps

    def test_update_bw_suppressed_while_frozen(self):
        table = FlowStateTable()
        table.add(make_flow(size=100.0, bw=10.0))
        table.set_bw("f", 20.0, now=0.0)
        applied = table.update_bw_from_stats("f", 5.0, now=2.0)
        assert applied is False
        assert table.flows["f"].bw_bps == 20.0

    def test_update_bw_applies_after_freeze_expires(self):
        table = FlowStateTable()
        table.add(make_flow(size=100.0, bw=10.0))
        table.set_bw("f", 20.0, now=0.0)  # freeze until t=5
        applied = table.update_bw_from_stats("f", 7.0, now=6.0)
        assert applied is True
        flow = table.flows["f"]
        assert flow.bw_bps == 7.0
        assert not flow.freezed

    def test_update_bw_applies_when_never_frozen(self):
        table = FlowStateTable()
        table.add(make_flow(bw=10.0))
        assert table.update_bw_from_stats("f", 3.0, now=1.0) is True
        assert table.flows["f"].bw_bps == 3.0

    def test_update_bw_unknown_flow_ignored(self):
        table = FlowStateTable()
        assert table.update_bw_from_stats("ghost", 3.0, now=1.0) is False

    def test_update_remaining_ignores_freeze(self):
        table = FlowStateTable()
        table.add(make_flow(size=100.0, bw=10.0))
        table.set_bw("f", 20.0, now=0.0)
        table.update_remaining("f", 40.0)
        assert table.flows["f"].remaining_bits == 40.0

    def test_update_remaining_clamps_negative(self):
        table = FlowStateTable()
        table.add(make_flow())
        table.update_remaining("f", -5.0)
        assert table.flows["f"].remaining_bits == 0.0


class TestTrackedFlow:
    def test_expected_completion(self):
        flow = make_flow(size=100.0, bw=10.0)
        assert flow.expected_completion() == pytest.approx(10.0)

    def test_expected_completion_zero_bw_is_inf(self):
        flow = make_flow(bw=0.0)
        assert flow.expected_completion() == math.inf
