"""Unit tests for shortest-path enumeration."""

import pytest

from repro.net import RoutingTable, three_tier


@pytest.fixture(scope="module")
def table():
    return RoutingTable(three_tier())


def test_same_rack_single_two_hop_path(table):
    paths = table.paths("pod0-rack0-h0", "pod0-rack0-h1")
    assert len(paths) == 1
    assert len(paths[0].link_ids) == 2
    assert paths[0].link_ids == (
        "pod0-rack0-h0->pod0-rack0",
        "pod0-rack0->pod0-rack0-h1",
    )


def test_same_pod_four_hop_paths_one_per_agg(table):
    paths = table.paths("pod0-rack0-h0", "pod0-rack1-h0")
    assert len(paths) == 2  # one via each aggregation switch
    assert all(len(p.link_ids) == 4 for p in paths)
    aggs = {p.link_ids[1].split("->")[1] for p in paths}
    assert aggs == {"pod0-agg0", "pod0-agg1"}


def test_cross_pod_six_hop_paths(table):
    paths = table.paths("pod0-rack0-h0", "pod1-rack0-h0")
    # 2 aggs (src pod) x 2 cores x 2 aggs (dst pod) = 8
    assert len(paths) == 8
    assert all(len(p.link_ids) == 6 for p in paths)


def test_path_hop_lengths_are_2_4_or_6(table):
    """§4.2: shortest paths in a 3-tier tree have length 2, 4 or 6."""
    pairs = [
        ("pod0-rack0-h0", "pod0-rack0-h3"),
        ("pod0-rack0-h0", "pod0-rack3-h0"),
        ("pod0-rack0-h0", "pod3-rack3-h3"),
    ]
    lengths = {len(table.paths(a, b)[0].link_ids) for a, b in pairs}
    assert lengths == {2, 4, 6}


def test_paths_are_directed_from_src_to_dst(table):
    for path in table.paths("pod2-rack1-h2", "pod0-rack0-h0"):
        assert path.src == "pod2-rack1-h2"
        assert path.dst == "pod0-rack0-h0"
        assert path.link_ids[0].startswith("pod2-rack1-h2->")
        assert path.link_ids[-1].endswith("->pod0-rack0-h0")
        # links chain contiguously
        for a, b in zip(path.link_ids, path.link_ids[1:]):
            assert a.split("->")[1] == b.split("->")[0]


def test_self_path_rejected(table):
    with pytest.raises(ValueError):
        table.paths("pod0-rack0-h0", "pod0-rack0-h0")


def test_non_host_endpoint_rejected(table):
    with pytest.raises(ValueError):
        table.paths("pod0-rack0", "pod0-rack0-h0")


def test_paths_cached(table):
    first = table.paths("pod0-rack0-h0", "pod1-rack0-h0")
    second = table.paths("pod0-rack0-h0", "pod1-rack0-h0")
    assert first is second


def test_paths_deterministic_order(table):
    fresh = RoutingTable(three_tier())
    a = [p.link_ids for p in fresh.paths("pod0-rack0-h0", "pod1-rack0-h0")]
    b = [p.link_ids for p in table.paths("pod0-rack0-h0", "pod1-rack0-h0")]
    assert a == b


def test_paths_from_replicas_skips_local(table):
    client = "pod0-rack0-h0"
    replicas = [client, "pod0-rack0-h1", "pod1-rack0-h0"]
    candidates = table.paths_from_replicas(replicas, client)
    # 1 same-rack path + 8 cross-pod paths, local replica contributes none
    assert len(candidates) == 9
    assert all(p.dst == client for p in candidates)
