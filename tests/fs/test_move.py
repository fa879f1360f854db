"""Tests for the move operation and the §3.3 random-write emulation."""

import random

import pytest

from repro.baselines.selectors import NearestReplicaSelector
from repro.cluster.planners import SchemeReadPlanner
from repro.fs.client import MayflowerClient
from repro.fs.errors import FileNotFoundFsError, InvalidRequestError

MB = 1024 * 1024


def make_client(mini_cluster, host):
    topo = mini_cluster.network.topology
    return MayflowerClient(
        host_id=host,
        loop=mini_cluster.loop,
        fabric=mini_cluster.fabric,
        nameserver_endpoint=mini_cluster.nameserver_host,
        planner=SchemeReadPlanner(
            NearestReplicaSelector(topo, random.Random(5))
        ),
    )


class TestNameserverMove:
    def test_simple_rename(self, mini_cluster):
        ns = mini_cluster.nameserver
        original = ns.create("old")
        result = ns.move("old", "new")
        assert result["moved"]["name"] == "new"
        assert result["moved"]["file_id"] == original["file_id"]
        assert result["replaced"] is None
        assert not ns.exists("old")
        assert ns.lookup("new")["replicas"] == original["replicas"]

    def test_move_over_existing_returns_replaced(self, mini_cluster):
        ns = mini_cluster.nameserver
        victim = ns.create("target")
        ns.create("source")
        result = ns.move("source", "target")
        assert result["replaced"]["file_id"] == victim["file_id"]
        assert ns.lookup("target")["name"] == "target"

    def test_move_missing_source(self, mini_cluster):
        with pytest.raises(FileNotFoundFsError):
            mini_cluster.nameserver.move("ghost", "x")

    def test_move_to_self_rejected(self, mini_cluster):
        mini_cluster.nameserver.create("a")
        with pytest.raises(InvalidRequestError):
            mini_cluster.nameserver.move("a", "a")

    def test_move_preserves_size(self, mini_cluster):
        ns = mini_cluster.nameserver
        ns.create("f")
        ns.record_append("f", 12345)
        ns.move("f", "g")
        assert ns.lookup("g")["size_bytes"] == 12345


class TestClientRandomWriteEmulation:
    def test_random_write_via_copy_and_move(self, mini_cluster):
        """The exact §3.3 workflow: new version under a temp name, then
        move over the original; the old version's replicas are reclaimed."""
        client = make_client(mini_cluster, sorted(mini_cluster.dataservers)[0])
        v1 = b"version-one " * 1000
        v2 = b"version-TWO " * 1200

        def scenario():
            old_meta = yield from client.create("data", chunk_bytes=4 * MB)
            yield from client.append("data", len(v1), v1)
            # "random write": build the new version, then move it over
            yield from client.create("data.tmp", chunk_bytes=4 * MB)
            yield from client.append("data.tmp", len(v2), v2)
            moved = yield from client.move("data.tmp", "data")
            result = yield from client.read("data")
            return old_meta, moved, result

        old_meta, moved, result = mini_cluster.run(scenario())
        assert result.data == v2
        assert moved.name == "data"
        # the replaced version's chunks were reclaimed everywhere
        for replica in old_meta.replicas:
            assert not mini_cluster.dataservers[replica].has_file(old_meta.file_id)

    def test_dataserver_metadata_follows_rename(self, mini_cluster):
        """After a move, a nameserver rebuild sees the *new* name."""
        client = make_client(mini_cluster, sorted(mini_cluster.dataservers)[0])

        def scenario():
            meta = yield from client.create("before", chunk_bytes=4 * MB)
            yield from client.append("before", 100, b"z" * 100)
            yield from client.move("before", "after")
            return meta

        meta = mini_cluster.run(scenario())
        listing = mini_cluster.dataservers[meta.primary].list_files()
        names = [entry["name"] for entry in listing]
        assert names == ["after"]

    def test_cache_updated_after_move(self, mini_cluster):
        client = make_client(mini_cluster, sorted(mini_cluster.dataservers)[0])

        def scenario():
            yield from client.create("a", chunk_bytes=4 * MB)
            yield from client.append("a", 100, b"q" * 100)
            yield from client.move("a", "b")
            result = yield from client.read("b")
            return result

        result = mini_cluster.run(scenario())
        assert result.data == b"q" * 100
        assert "a" not in client._cache
        assert "b" in client._cache

