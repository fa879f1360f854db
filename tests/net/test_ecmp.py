"""Unit tests for ECMP path hashing."""

import pytest

from repro.net import EcmpHasher, RoutingTable, three_tier


@pytest.fixture(scope="module")
def paths():
    table = RoutingTable(three_tier())
    return table.paths("pod0-rack0-h0", "pod1-rack0-h0")


def test_same_tuple_same_path(paths):
    hasher = EcmpHasher()
    a = hasher.pick(paths, 1234, 80)
    b = hasher.pick(paths, 1234, 80)
    assert a is b


def test_different_ports_spread_over_paths(paths):
    hasher = EcmpHasher()
    chosen = {hasher.pick(paths, port, 80).link_ids for port in range(200)}
    # with 8 candidate paths and 200 draws we should hit most buckets
    assert len(chosen) >= 6


def test_salt_changes_mapping(paths):
    a = EcmpHasher(salt=0).pick(paths, 1234, 80)
    b = EcmpHasher(salt=1).pick(paths, 1234, 80)
    # not guaranteed different for every tuple, but across several ports
    diffs = sum(
        EcmpHasher(salt=0).pick(paths, p, 80) != EcmpHasher(salt=1).pick(paths, p, 80)
        for p in range(50)
    )
    assert diffs > 0


def test_empty_candidates_rejected():
    with pytest.raises(ValueError):
        EcmpHasher().pick([], 1, 2)


def test_mismatched_endpoints_rejected(paths):
    table = RoutingTable(three_tier())
    other = table.paths("pod0-rack0-h0", "pod0-rack0-h1")
    with pytest.raises(ValueError):
        EcmpHasher().pick(list(paths) + list(other), 1, 2)


def test_pick_for_flow_varies_with_sequence(paths):
    hasher = EcmpHasher()
    chosen = {hasher.pick_for_flow(paths, seq).link_ids for seq in range(100)}
    assert len(chosen) >= 6
