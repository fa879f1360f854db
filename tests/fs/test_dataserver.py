"""Unit tests for the dataserver (appends, relays, reads, locking)."""

import dataclasses
import tracemalloc

import pytest

from repro.core.fanout import static_chain_plan
from repro.fs.chunks import FileMetadata
from repro.fs.errors import (
    FileNotFoundFsError,
    InvalidRequestError,
    NotPrimaryError,
)
from repro.rpc.errors import RemoteInvocationError
from repro.sim import Process

MB = 1024 * 1024


def create_everywhere(mini_cluster, name="f1", chunk_bytes=4 * MB):
    """Create a file on the nameserver and all its replica dataservers."""
    meta_dict = mini_cluster.nameserver.create(name, chunk_bytes=chunk_bytes)
    for replica in meta_dict["replicas"]:
        mini_cluster.dataservers[replica].create_file(meta_dict)
    return FileMetadata.from_json_dict(meta_dict)


def other_host(mini_cluster, meta):
    return next(
        h for h in sorted(mini_cluster.dataservers) if h not in meta.replicas
    )


def push(mini_cluster, meta, writer, size, data=None, target=None):
    """Phase one of an append at ``target`` (the primary by default)."""
    append_id = f"ap:test:{mini_cluster.fabric.new_caller_id()}"
    yield from mini_cluster.fabric.invoke(
        writer, target or meta.primary, "dataserver", "push_data",
        meta.file_id, append_id, size, writer, data,
    )
    return append_id


def commit(mini_cluster, meta, writer, append_id, target=None):
    """Phase two: order at ``target`` and relay down the static chain."""
    plan = static_chain_plan(writer, meta.primary, meta.replicas[1:])
    new_size = yield from mini_cluster.fabric.invoke(
        writer, target or meta.primary, "dataserver", "commit_append",
        meta.file_id, append_id, writer, plan.children,
    )
    return new_size


def append(mini_cluster, meta, writer, size, data=None):
    """One whole append, as the client library issues it."""
    append_id = yield from push(mini_cluster, meta, writer, size, data)
    new_size = yield from commit(mini_cluster, meta, writer, append_id)
    return new_size


def test_create_is_idempotent(mini_cluster):
    meta = create_everywhere(mini_cluster)
    ds = mini_cluster.dataservers[meta.primary]
    assert ds.create_file(meta.to_json_dict()) == meta.file_id
    assert ds.has_file(meta.file_id)


def test_rename_file_equals_dataclasses_replace(mini_cluster):
    meta = create_everywhere(mini_cluster)
    for replica in meta.replicas:
        ds = mini_cluster.dataservers[replica]
        before = ds._stored(meta.file_id).metadata
        assert ds.rename_file(meta.file_id, "moved/f1") is True
        after = ds._stored(meta.file_id).metadata
        assert after == dataclasses.replace(before, name="moved/f1")
        assert type(after) is FileMetadata


def test_delete_file(mini_cluster):
    meta = create_everywhere(mini_cluster)
    ds = mini_cluster.dataservers[meta.primary]
    assert ds.delete_file(meta.file_id) is True
    assert ds.delete_file(meta.file_id) is False
    assert not ds.has_file(meta.file_id)


def test_append_commits_on_all_replicas(mini_cluster):
    meta = create_everywhere(mini_cluster)
    writer = other_host(mini_cluster, meta)
    payload = b"x" * (1 * MB)

    new_size = mini_cluster.run(
        append(mini_cluster, meta, writer, len(payload), payload)
    )
    assert new_size == 1 * MB
    for replica in meta.replicas:
        assert mini_cluster.dataservers[replica].file_size(meta.file_id) == 1 * MB


def test_append_updates_nameserver_size(mini_cluster):
    meta = create_everywhere(mini_cluster)
    writer = other_host(mini_cluster, meta)

    mini_cluster.run(append(mini_cluster, meta, writer, 2 * MB))
    assert mini_cluster.nameserver.lookup("f1")["size_bytes"] == 2 * MB


def test_append_to_non_primary_rejected(mini_cluster):
    meta = create_everywhere(mini_cluster)
    writer = other_host(mini_cluster, meta)
    secondary = meta.replicas[1]

    def client():
        # staging is unordered and open to any replica; ordering is not
        append_id = yield from push(
            mini_cluster, meta, writer, 1 * MB, target=secondary
        )
        yield from commit(mini_cluster, meta, writer, append_id, target=secondary)

    with pytest.raises(RemoteInvocationError) as exc_info:
        mini_cluster.run(client())
    assert isinstance(exc_info.value.remote_error, NotPrimaryError)
    assert isinstance(exc_info.value.remote_error, InvalidRequestError)
    for replica in meta.replicas:
        assert mini_cluster.dataservers[replica].file_size(meta.file_id) == 0


def test_appends_fill_chunks_sequentially(mini_cluster):
    meta = create_everywhere(mini_cluster, chunk_bytes=4 * MB)
    writer = other_host(mini_cluster, meta)

    def client():
        for size in (3 * MB, 3 * MB, 3 * MB):
            yield from append(mini_cluster, meta, writer, size)

    mini_cluster.run(client())
    ds = mini_cluster.dataservers[meta.primary]
    assert ds.file_size(meta.file_id) == 9 * MB


def test_concurrent_appends_serialized_and_atomic(mini_cluster):
    meta = create_everywhere(mini_cluster)
    writers = [h for h in sorted(mini_cluster.dataservers) if h not in meta.replicas][:2]
    results = []

    def client(writer, payload):
        new_size = yield from append(
            mini_cluster, meta, writer, len(payload), payload
        )
        results.append(new_size)

    Process(mini_cluster.loop, client(writers[0], b"a" * MB))
    Process(mini_cluster.loop, client(writers[1], b"b" * MB))
    mini_cluster.loop.run()
    # both committed; sizes reflect a total order (1 MB then 2 MB)
    assert sorted(results) == [1 * MB, 2 * MB]
    primary = mini_cluster.dataservers[meta.primary]
    stored = primary._files[meta.file_id]
    # payload is one writer's bytes then the other's, never interleaved
    body = bytes(stored.payload)
    assert body in (b"a" * MB + b"b" * MB, b"b" * MB + b"a" * MB)
    # every replica converged to the same content
    for replica in meta.replicas[1:]:
        other = mini_cluster.dataservers[replica]._files[meta.file_id]
        assert bytes(other.payload) == body


def test_read_returns_data_and_size(mini_cluster):
    meta = create_everywhere(mini_cluster)
    writer = other_host(mini_cluster, meta)
    payload = bytes(range(256)) * 4096  # 1 MB

    def client():
        yield from append(mini_cluster, meta, writer, len(payload), payload)
        reply = yield from mini_cluster.fabric.invoke(
            writer, meta.primary, "dataserver", "serve_read",
            meta.file_id, 1000, 5000, writer,
        )
        return reply

    reply = mini_cluster.run(client())
    assert reply.data == payload[1000:6000]
    assert reply.file_size == len(payload)


def test_read_past_end_rejected(mini_cluster):
    meta = create_everywhere(mini_cluster)
    ds = mini_cluster.dataservers[meta.primary]
    ds.load_preexisting(meta.file_id, 100)

    def client():
        yield from mini_cluster.fabric.invoke(
            meta.primary, meta.primary, "dataserver", "serve_read",
            meta.file_id, 50, 100, meta.primary,
        )

    with pytest.raises(RemoteInvocationError, match="past end"):
        mini_cluster.run(client())


def test_read_of_unknown_file(mini_cluster):
    ds = mini_cluster.dataservers[sorted(mini_cluster.dataservers)[0]]
    with pytest.raises(FileNotFoundFsError):
        ds.file_size("nope")


def test_read_waits_for_append_touching_last_chunk(mini_cluster):
    """A read of the last chunk issued while an append is being ordered
    completes only after the append commits, and observes the appended
    bytes.  (Staging takes no lock: only the commit phase blocks reads.)"""
    meta = create_everywhere(mini_cluster, chunk_bytes=4 * MB)
    writer = other_host(mini_cluster, meta)
    ds = mini_cluster.dataservers[meta.primary]
    ds.load_preexisting(meta.file_id, 1 * MB)
    for replica in meta.replicas[1:]:
        mini_cluster.dataservers[replica].load_preexisting(meta.file_id, 1 * MB)
    order = []

    def appender():
        append_id = yield from push(mini_cluster, meta, writer, 1 * MB)
        # reader starts shortly after the commit is in flight: past the
        # primary's lease round trip, inside the relay
        mini_cluster.loop.call_at(
            mini_cluster.loop.now + 0.002, Process, mini_cluster.loop, reader()
        )
        yield from commit(mini_cluster, meta, writer, append_id)
        order.append(("append-done", mini_cluster.loop.now))

    def reader():
        reply = yield from mini_cluster.fabric.invoke(
            writer, meta.primary, "dataserver", "serve_read",
            meta.file_id, 0, 1 * MB, writer,
        )
        order.append(("read-done", mini_cluster.loop.now, reply.file_size))
        return reply

    Process(mini_cluster.loop, appender())
    mini_cluster.loop.run()
    assert [entry[0] for entry in order] == ["append-done", "read-done"]
    assert order[1][2] == 2 * MB


def test_list_files_reports_committed_sizes(mini_cluster):
    meta = create_everywhere(mini_cluster)
    ds = mini_cluster.dataservers[meta.primary]
    ds.load_preexisting(meta.file_id, 7 * MB)
    listing = ds.list_files()
    assert len(listing) == 1
    assert listing[0]["file_id"] == meta.file_id
    assert listing[0]["size_bytes"] == 7 * MB


def test_preloaded_bytes_are_a_count_not_a_buffer(mini_cluster):
    meta = create_everywhere(mini_cluster)
    ds = mini_cluster.dataservers[meta.primary]
    tracemalloc.start()
    try:
        ds.load_preexisting(meta.file_id, 256 * MB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 * MB
    assert ds.file_size(meta.file_id) == 256 * MB


def preloaded_then_appended(mini_cluster, preloaded, blob):
    """A file pre-loaded with ``preloaded`` bytes on every replica, then
    one real append of ``blob``; returns the primary's stored file."""
    meta = create_everywhere(mini_cluster)
    for replica in meta.replicas:
        mini_cluster.dataservers[replica].load_preexisting(meta.file_id, preloaded)
    writer = other_host(mini_cluster, meta)
    mini_cluster.run(append(mini_cluster, meta, writer, len(blob), blob))
    return meta, writer


def test_read_spanning_preloaded_prefix_and_append(mini_cluster):
    meta, writer = preloaded_then_appended(mini_cluster, 100, b"x" * 50)

    def client():
        reply = yield from mini_cluster.fabric.invoke(
            writer, meta.primary, "dataserver", "serve_read",
            meta.file_id, 60, 80, writer,
        )
        return reply

    assert mini_cluster.run(client()).data == b"\x00" * 40 + b"x" * 40
    for replica in meta.replicas:
        stored = mini_cluster.dataservers[replica]._files[meta.file_id]
        assert stored.payload_bytes(0, 150) == b"\x00" * 100 + b"x" * 50


def test_truncate_into_preloaded_prefix(mini_cluster):
    meta, writer = preloaded_then_appended(mini_cluster, 100, b"x" * 50)
    ds = mini_cluster.dataservers[meta.primary]
    stored = ds._files[meta.file_id]
    ds._truncate(stored, 30)
    assert stored.size_bytes == 30
    assert stored.payload_bytes(0, 100) == b"\x00" * 30
    assert ds._entry_bytes(stored, "none", 10, 30) == b"\x00" * 20
    # a cut at the prefix's end drops the append and keeps every zero
    other = mini_cluster.dataservers[meta.replicas[1]]
    other_stored = other._files[meta.file_id]
    other._truncate(other_stored, 100)
    assert other_stored.payload_bytes(0, 150) == b"\x00" * 100


def test_load_preexisting_validates(mini_cluster):
    meta = create_everywhere(mini_cluster)
    ds = mini_cluster.dataservers[meta.primary]
    with pytest.raises(InvalidRequestError):
        ds.load_preexisting(meta.file_id, -1)
    ds.load_preexisting(meta.file_id, 0)
    assert ds.file_size(meta.file_id) == 0
