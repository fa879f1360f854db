"""Unit tests for the nameserver."""

import collections
import hashlib
import random
import re

import pytest

from repro.fs.errors import (
    FileAlreadyExistsError,
    FileNotFoundFsError,
    InvalidRequestError,
)
from repro.fs.nameserver import Nameserver
from repro.fs.placement import PaperEvalPlacement
from repro.net import three_tier


@pytest.fixture()
def ns():
    topo = three_tier(pods=2, racks_per_pod=2, hosts_per_rack=2)
    return Nameserver(
        PaperEvalPlacement(topo, random.Random(1)),
        rng=random.Random(2),
    )


def test_create_places_replicas(ns):
    meta = ns.create("f1")
    assert meta["name"] == "f1"
    assert meta["size_bytes"] == 0
    assert len(meta["replicas"]) == 3
    assert len(set(meta["replicas"])) == 3


def test_create_duplicate_rejected(ns):
    ns.create("f1")
    with pytest.raises(FileAlreadyExistsError):
        ns.create("f1")


def test_create_empty_name_rejected(ns):
    with pytest.raises(InvalidRequestError):
        ns.create("")


def test_lookup(ns):
    created = ns.create("f1")
    fetched = ns.lookup("f1")
    assert fetched == created
    assert ns.lookups == 1


def test_lookup_missing(ns):
    with pytest.raises(FileNotFoundFsError):
        ns.lookup("ghost")


def test_delete(ns):
    ns.create("f1")
    meta = ns.delete("f1")
    assert meta["name"] == "f1"
    assert not ns.exists("f1")
    with pytest.raises(FileNotFoundFsError):
        ns.delete("f1")


def test_record_append_updates_size(ns):
    ns.create("f1")
    assert ns.record_append("f1", 1000) == 1000
    assert ns.lookup("f1")["size_bytes"] == 1000


def test_record_append_cannot_shrink(ns):
    ns.create("f1")
    ns.record_append("f1", 1000)
    with pytest.raises(InvalidRequestError):
        ns.record_append("f1", 500)


def test_list_files_sorted(ns):
    for name in ("b", "a", "c"):
        ns.create(name)
    assert ns.list_files() == ["a", "b", "c"]


def test_file_ids_unique_and_deterministic():
    topo = three_tier(pods=2, racks_per_pod=2, hosts_per_rack=2)

    def build():
        return Nameserver(
            PaperEvalPlacement(topo, random.Random(1)),
            rng=random.Random(42),
        )

    ns1 = build()
    ns2 = build()
    ids1 = [ns1.create(f"f{i}")["file_id"] for i in range(10)]
    ids2 = [ns2.create(f"f{i}")["file_id"] for i in range(10)]
    assert ids1 == ids2
    assert len(set(ids1)) == 10


def test_rebuild_from_dataservers(mini_cluster):
    """Unexpected restart: mappings come back from dataserver scans, with
    the primary's size winning over stale secondaries."""
    ns = mini_cluster.nameserver
    meta = ns.create("f1")
    for replica in meta["replicas"]:
        mini_cluster.dataservers[replica].create_file(meta)
    # primary has 100 committed bytes, a secondary lags at 50
    mini_cluster.dataservers[meta["replicas"][0]].load_preexisting(meta["file_id"], 100)
    mini_cluster.dataservers[meta["replicas"][1]].load_preexisting(meta["file_id"], 50)

    def rebuild():
        count = yield from ns.rebuild_from_dataservers(
            mini_cluster.fabric,
            mini_cluster.nameserver_host,
            sorted(mini_cluster.dataservers),
        )
        return count

    recovered = mini_cluster.run(rebuild())
    assert recovered == 1
    assert ns.lookup("f1")["size_bytes"] == 100
    assert ns.lookup("f1")["file_id"] == meta["file_id"]


#: sha256 of the replay below: every reply, error and listing, in order.
NAMESPACE_REPLAY_SHA256 = "16ab49635727a9e0fcf48b299644bd0d51df405c2f4245ea4304d5ca2368dd0f"
_BLANKS = re.compile(r"'[^']*'|\d+")


def _replay(ns, hosts, ops=2000, seed=20):
    """Drive ``ns`` with a seeded mix of every handler and error path.

    Returns the sha256 over each ``(op, args, reply or error)`` and the
    outcome labels seen, with quoted names and numbers blanked out.
    """
    rng = random.Random(seed)
    names = [f"f{i:02d}" for i in range(40)] + [""]
    sha = hashlib.sha256()
    outcomes = collections.Counter()

    def call(op, *args):
        try:
            reply = getattr(ns, op)(*args)
            label = "ok"
            if op == "move" and reply["replaced"] is not None:
                label = "replaced"
        except Exception as exc:
            reply = (type(exc).__name__, str(exc))
            label = f"{type(exc).__name__}: {_BLANKS.sub('_', str(exc))}"
        outcomes[op, label] += 1
        sha.update(repr((op, args, reply)).encode())

    for _ in range(ops):
        op = rng.choice(("create", "create", "create", "lookup", "lookup",
                         "delete", "move", "record_append",
                         "update_replicas", "exists"))
        name = rng.choice(names)
        if op == "create":
            call(op, name, rng.choice((0, 1, 2, 3, 3, 3, 4)),
                 rng.choice((1 << 20, 64 << 20)), rng.choice(hosts))
        elif op == "move":
            call(op, name, rng.choice(names + [name]))
        elif op == "record_append":
            call(op, name, rng.randrange(64) * 1024)
        elif op == "update_replicas":
            replicas = rng.sample(hosts, rng.randrange(4))
            if replicas and rng.random() < 0.3:
                replicas.append(replicas[0])
            call(op, name, replicas)
        else:
            call(op, name)
        call("list_files")
    return sha.hexdigest(), outcomes


def test_namespace_replay_is_pinned():
    """Every reply of a seeded op sequence on a 64-host cluster's
    namespace, errors included, is pinned byte for byte."""
    topo = three_tier()
    ns = Nameserver(
        PaperEvalPlacement(topo, random.Random(7)),
        rng=random.Random(8),
    )
    digest, outcomes = _replay(ns, sorted(topo.hosts))
    for label in (
        ("create", "FileAlreadyExistsError: file _ already exists"),
        ("create", "InvalidRequestError: file name must be non-empty"),
        ("create", "InvalidRequestError: replication must be >= _, got _"),
        ("lookup", "FileNotFoundFsError: no file named _"),
        ("delete", "FileNotFoundFsError: no file named _"),
        ("move", "replaced"),
        ("move", "FileNotFoundFsError: no file named _"),
        ("move", "InvalidRequestError: destination name must be non-empty"),
        ("move", "InvalidRequestError: move source and destination are identical"),
        ("record_append", "InvalidRequestError: append would shrink _: _ < _"),
        ("update_replicas", "InvalidRequestError: invalid replica set []"),
    ):
        assert outcomes[label] > 0, label
    # A rejected non-empty replica set is one with a duplicate host.
    assert any(label.startswith("InvalidRequestError: invalid replica set [_")
               for op, label in outcomes if op == "update_replicas")
    assert digest == NAMESPACE_REPLAY_SHA256
