"""Direct unit tests for link objects."""

import pytest

from repro.net import Link, LinkDirection


def test_link_attributes():
    link = Link("a->b", "a", "b", 1e9, LinkDirection.UP)
    assert link.src == "a"
    assert link.dst == "b"
    assert link.capacity_bps == 1e9
    assert link.direction is LinkDirection.UP
    assert len(link.flows) == 0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        Link("a->b", "a", "b", 0)
    with pytest.raises(ValueError):
        Link("a->b", "a", "b", -1e9)


def test_flow_registry():
    link = Link("a->b", "a", "b", 1e9)
    link.flows.add("f1")
    link.flows.add("f2")
    assert len(link.flows) == 2
    link.flows.discard("f1")
    assert len(link.flows) == 1


def test_direction_default_is_flat():
    assert Link("a->b", "a", "b", 1e9).direction is LinkDirection.FLAT
