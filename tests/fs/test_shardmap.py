"""Shard-map tests: routing is a partition of the namespace.

The routing function is pure in (name, partition count): epoch bumps
re-describe *where* partitions are served, never *which* partition owns a
name.  That invariant is what makes the client's cached map safe — a
stale map can misroute to the wrong endpoint, but the responding
guard's epoch tells the client to refresh, and the refreshed map routes
the same name to the same partition index.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.errors import InvalidRequestError, WrongPartitionError
from repro.fs.shardmap import (
    PartitionGuard,
    ShardMap,
    ShardRouter,
    partition_for,
)

names = st.text(min_size=1, max_size=64)
counts = st.integers(min_value=1, max_value=32)


# ---------------------------------------------------------------------------
# The partition property
# ---------------------------------------------------------------------------


@given(name=names, count=counts)
def test_every_name_routes_to_exactly_one_partition(name, count):
    owner = partition_for(name, count)
    assert 0 <= owner < count
    # pure function: the same inputs always give the same owner
    assert partition_for(name, count) == owner


@given(name=names, count=counts, epochs=st.lists(
    st.integers(min_value=2, max_value=100), min_size=1, max_size=5,
    unique=True,
))
def test_routing_is_stable_across_epoch_bumps(name, count, epochs):
    """Epoch bumps relocate partitions, never reassign names."""
    endpoints = tuple(f"host-{p}" for p in range(count))
    owner = ShardMap(epoch=1, partitions=endpoints).partition_for(name)
    for epoch in sorted(epochs):
        moved = tuple(f"host-{p}-gen{epoch}" for p in range(count))
        bumped = ShardMap(epoch=epoch, partitions=moved)
        assert bumped.partition_for(name) == owner


@given(count=st.integers(min_value=2, max_value=16))
@settings(max_examples=20)
def test_names_spread_across_partitions(count):
    """Consistent hashing actually spreads a namespace, not degenerate."""
    used = {
        partition_for(f"/data/file-{i}.dat", count) for i in range(256)
    }
    assert len(used) == count


def test_single_partition_short_circuits():
    assert partition_for("anything", 1) == 0


def test_partition_for_rejects_bad_count():
    with pytest.raises(ValueError):
        partition_for("x", 0)


# ---------------------------------------------------------------------------
# ShardMap / ShardRouter
# ---------------------------------------------------------------------------


def two_partition_map(epoch=1):
    return ShardMap(epoch=epoch, partitions=("h0", "h1"))


def test_shard_map_roundtrips_through_json():
    m = two_partition_map(epoch=3)
    assert ShardMap.from_json_dict(m.to_json_dict()) == m


def test_shard_map_validates_structure():
    with pytest.raises(ValueError):
        ShardMap(epoch=-1, partitions=("h0",))
    with pytest.raises(ValueError):
        ShardMap(epoch=1, partitions=())
    with pytest.raises(ValueError):
        ShardMap(epoch=1, partitions=("h0", ""))


def test_router_adopts_only_newer_epochs():
    router = ShardRouter(two_partition_map(epoch=2))
    assert not router.install(two_partition_map(epoch=1))
    assert not router.install(two_partition_map(epoch=2))
    assert router.epoch == 2
    assert router.install(two_partition_map(epoch=5))
    assert router.epoch == 5


def test_router_rejects_partition_count_changes():
    router = ShardRouter(two_partition_map(epoch=1))
    grown = ShardMap(epoch=2, partitions=("h0", "h1", "h2"))
    with pytest.raises(ValueError):
        router.install(grown)


# ---------------------------------------------------------------------------
# PartitionGuard
# ---------------------------------------------------------------------------


class FakeNameserver:
    def __init__(self):
        self.calls = []

    def lookup(self, name):
        self.calls.append(("lookup", name))
        return f"meta:{name}"

    def move(self, src, dst):
        self.calls.append(("move", src, dst))
        return "moved"

    def list_files(self):
        return ["a", "b"]


def guarded_pair():
    m = two_partition_map()
    inner0 = FakeNameserver()
    inner1 = FakeNameserver()
    return m, PartitionGuard(inner0, 0, m), PartitionGuard(inner1, 1, m)


def test_guard_serves_owned_names_and_rejects_misroutes():
    m, g0, g1 = guarded_pair()
    name = "/some/file"
    owner = m.partition_for(name)
    right, wrong = (g0, g1) if owner == 0 else (g1, g0)
    assert right.lookup(name) == f"meta:{name}"
    with pytest.raises(WrongPartitionError) as exc:
        wrong.lookup(name)
    assert exc.value.epoch == m.epoch
    assert wrong.misroutes == 1


def test_guard_exposes_shard_map_rpc():
    _, g0, _ = guarded_pair()
    assert g0.get_shard_map() == g0.shard_map.to_json_dict()


def test_guard_passes_through_unrouted_methods():
    _, g0, _ = guarded_pair()
    assert g0.list_files() == ["a", "b"]


def test_guard_rejects_cross_partition_move():
    m, g0, g1 = guarded_pair()
    # find two names owned by different partitions
    names = [f"/f{i}" for i in range(64)]
    src = next(n for n in names if m.partition_for(n) == 0)
    cross = next(n for n in names if m.partition_for(n) == 1)
    same = next(
        n for n in names if m.partition_for(n) == 0 and n != src
    )
    with pytest.raises(InvalidRequestError):
        g0.move(src, cross)
    assert g0.move(src, same) == "moved"


def test_guard_epoch_install_must_increase():
    m, g0, _ = guarded_pair()
    with pytest.raises(ValueError):
        g0.install_map(two_partition_map(epoch=1))
    g0.install_map(two_partition_map(epoch=2))
    assert g0.shard_map.epoch == 2
