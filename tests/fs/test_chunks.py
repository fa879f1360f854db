"""Unit tests for file/chunk metadata."""

import dataclasses

import pytest

from repro.fs.chunks import (
    DEFAULT_CHUNK_BYTES,
    FileMetadata,
    chunk_count,
)

MB = 1024 * 1024


class TestChunkArithmetic:
    def test_empty_file_has_no_chunks(self):
        assert chunk_count(0) == 0

    def test_exact_multiple(self):
        assert chunk_count(512 * MB, 256 * MB) == 2

    def test_partial_final_chunk(self):
        assert chunk_count(300 * MB, 256 * MB) == 2

    def test_single_byte(self):
        assert chunk_count(1, 256 * MB) == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_count(-1)

    def test_zero_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_count(100, 0)

class TestFileMetadata:
    def make(self, size=300 * MB):
        return FileMetadata(
            name="f",
            file_id="id-1",
            size_bytes=size,
            chunk_bytes=256 * MB,
            replicas=("h1", "h2", "h3"),
        )

    def test_primary_is_first_replica(self):
        assert self.make().primary == "h1"

    def test_num_chunks(self):
        assert self.make().num_chunks == 2
        assert self.make(0).num_chunks == 0

    def test_last_chunk_index(self):
        assert self.make().last_chunk_index() == 1
        assert self.make(0).last_chunk_index() == -1

    def test_with_size_returns_new_object(self):
        meta = self.make()
        bigger = meta.with_size(600 * MB)
        assert bigger.size_bytes == 600 * MB
        assert meta.size_bytes == 300 * MB
        assert bigger.replicas == meta.replicas

    def test_with_size_equals_dataclasses_replace(self):
        meta = self.make()
        for size in (0, 1, 600 * MB):
            assert meta.with_size(size) == dataclasses.replace(meta, size_bytes=size)

    def test_json_round_trip(self):
        meta = self.make()
        assert FileMetadata.from_json_dict(meta.to_json_dict()) == meta

    def test_default_chunk_is_256mb(self):
        assert DEFAULT_CHUNK_BYTES == 256 * MB
