"""File and chunk metadata.

Files are partitioned into large fixed-size chunks (§3.3, default 256 MB
per §5).  Replication happens at *file* granularity: every replica
dataserver holds a full copy of the file, so the file→dataservers mapping
is one list, not one per chunk.  ``replicas[0]`` is the primary, which
orders appends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Default chunk size (bytes): 256 MB, the paper's default block size (§5).
DEFAULT_CHUNK_BYTES = 256 * 1024 * 1024

#: Default replication factor (§5).
DEFAULT_REPLICATION = 3


def chunk_count(size_bytes: int, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> int:
    """Number of chunks holding ``size_bytes`` (0 for an empty file)."""
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes}")
    if chunk_bytes <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk_bytes}")
    return -(-size_bytes // chunk_bytes)


@dataclass(frozen=True)
class FileMetadata:
    """Nameserver record for one file.

    The paper's metadata is "at least 67 bytes per file": a UUID, the name,
    size, chunk size and the replica list — which is exactly what is here.
    """

    name: str
    file_id: str
    size_bytes: int
    chunk_bytes: int
    replicas: Tuple[str, ...]

    @property
    def primary(self) -> str:
        """The primary replica host (orders appends)."""
        return self.replicas[0]

    @property
    def num_chunks(self) -> int:
        return chunk_count(self.size_bytes, self.chunk_bytes)

    def last_chunk_index(self) -> int:
        """Index of the (mutable) last chunk; -1 for an empty file."""
        return self.num_chunks - 1

    def with_size(self, size_bytes: int) -> "FileMetadata":
        """A copy with an updated size (after an append)."""
        return FileMetadata(
            self.name, self.file_id, size_bytes, self.chunk_bytes, self.replicas
        )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "file_id": self.file_id,
            "size_bytes": self.size_bytes,
            "chunk_bytes": self.chunk_bytes,
            "replicas": list(self.replicas),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FileMetadata":
        return cls(
            name=obj["name"],
            file_id=obj["file_id"],
            size_bytes=obj["size_bytes"],
            chunk_bytes=obj["chunk_bytes"],
            replicas=tuple(obj["replicas"]),
        )
