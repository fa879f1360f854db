"""Direct unit tests for link objects."""

import pytest

from repro.net import Link, LinkDirection


def test_link_attributes():
    link = Link("a->b", "a", "b", 1e9, LinkDirection.UP)
    assert link.src == "a"
    assert link.dst == "b"
    assert link.capacity_bps == 1e9
    assert link.direction is LinkDirection.UP


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        Link("a->b", "a", "b", 0)
    with pytest.raises(ValueError):
        Link("a->b", "a", "b", -1e9)


def test_direction_default_is_flat():
    assert Link("a->b", "a", "b", 1e9).direction is LinkDirection.FLAT
