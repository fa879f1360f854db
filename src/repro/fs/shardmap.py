"""Namespace sharding: the nameserver front.

The file namespace is split into ``P >= 1`` partitions by consistent
hashing, each served by one nameserver (with its co-located lease
service) at one endpoint.  The paper's deployment — one LevelDB-backed
nameserver — is ``P = 1``: every name routes to partition 0 without
hashing.  Three pieces cooperate:

:class:`ShardMap`
    The authoritative epoch-stamped routing table: partition index →
    endpoint.  Name→partition routing is a pure function of the name and
    the partition *count* (a fixed virtual-node ring), so the partition
    of a file never depends on the epoch — epoch bumps re-describe
    *where* partitions are served, never *which* partition a name
    belongs to.

:class:`PartitionGuard`
    Server-side enforcement, wrapped around each partition's nameserver:
    name-bearing RPCs whose name hashes elsewhere are rejected with
    :class:`~repro.fs.errors.WrongPartitionError` carrying the guard's
    current epoch, instead of silently creating orphan metadata.  Every
    guard also answers ``get_shard_map`` so a client can bootstrap or
    refresh from any partition it can still reach.

:class:`ShardRouter`
    The client's cached view: resolves a name to its partition's
    endpoint without any RPC on the happy path, and is invalidated by
    installing a higher-epoch map (the client refetches when a guard's
    ``WrongPartitionError`` advertises a newer epoch).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Tuple

from repro.fs.errors import InvalidRequestError, WrongPartitionError
from repro.sim import instrument

#: Virtual nodes per partition on the hash ring.  More points smooth the
#: name distribution across partitions; the value is part of the routing
#: function and must never change once maps are in the wild.
VNODES_PER_PARTITION = 32

#: Nameserver RPCs whose first argument is the file name the request is
#: about (``move``'s is its source name).  These are the calls a
#: :class:`PartitionGuard` routes; everything else passes through.
NAME_ROUTED_METHODS = frozenset(
    {
        "create",
        "lookup",
        "exists",
        "delete",
        "record_append",
        "update_replicas",
        "move",
    }
)


def _hash_point(key: str) -> int:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=None)
def _ring(num_partitions: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The sorted virtual-node ring for a partition count.

    Returns parallel tuples ``(points, owners)``; cached because every
    map with the same partition count shares one ring.
    """
    nodes: List[Tuple[int, int]] = []
    for partition in range(num_partitions):
        for vnode in range(VNODES_PER_PARTITION):
            nodes.append((_hash_point(f"shard:{partition}:{vnode}"), partition))
    nodes.sort()
    return (
        tuple(point for point, _ in nodes),
        tuple(owner for _, owner in nodes),
    )


def partition_for(name: str, num_partitions: int) -> int:
    """The partition owning ``name`` — pure function of (name, count)."""
    if num_partitions <= 0:
        raise ValueError(f"need at least one partition, got {num_partitions}")
    if num_partitions == 1:
        return 0
    points, owners = _ring(num_partitions)
    index = bisect_left(points, _hash_point(f"name:{name}"))
    if index == len(points):
        index = 0
    return owners[index]


@dataclass(frozen=True)
class ShardMap:
    """Epoch-stamped partition → endpoint table."""

    epoch: int
    partitions: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {self.epoch}")
        if not self.partitions:
            raise ValueError("a shard map needs at least one partition")
        for index, endpoint in enumerate(self.partitions):
            if not endpoint:
                raise ValueError(f"partition {index} has no endpoint")

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def partition_for(self, name: str) -> int:
        return partition_for(name, self.num_partitions)

    def endpoint_for(self, name: str) -> str:
        return self.partitions[self.partition_for(name)]

    def to_json_dict(self) -> Dict[str, Any]:
        return {"epoch": self.epoch, "partitions": list(self.partitions)}

    @staticmethod
    def from_json_dict(data: Dict[str, Any]) -> "ShardMap":
        return ShardMap(
            epoch=int(data["epoch"]),
            partitions=tuple(str(e) for e in data["partitions"]),
        )


class ShardRouter:
    """Client-side cached shard map with monotonic-epoch invalidation."""

    def __init__(self, shard_map: ShardMap) -> None:
        self._map = shard_map
        self.refreshes = 0

    @property
    def shard_map(self) -> ShardMap:
        return self._map

    @property
    def epoch(self) -> int:
        return self._map.epoch

    def endpoint_for(self, name: str) -> str:
        return self._map.endpoint_for(name)

    def install(self, shard_map: ShardMap) -> bool:
        """Adopt a refreshed map; stale (≤ cached epoch) maps are ignored.

        Returns whether the map was adopted.
        """
        if shard_map.epoch <= self._map.epoch:
            return False
        if shard_map.num_partitions != self._map.num_partitions:
            raise ValueError(
                "shard-map epoch bump cannot change the partition count "
                f"({self._map.num_partitions} -> {shard_map.num_partitions})"
            )
        self._map = shard_map
        self.refreshes += 1
        return True


class PartitionGuard:
    """Routing enforcement wrapped around one partition's nameserver.

    Name-routed RPCs are checked against the shard map before reaching
    the inner nameserver; everything else (``list_files``, recovery,
    lifecycle) delegates untouched, so the guard is a drop-in
    ``"nameserver"`` service handler for the RPC fabric.  The checked
    methods are built once, here, not per call: every metadata RPC of
    every deployment passes through them.
    """

    def __init__(self, inner: Any, index: int, shard_map: ShardMap) -> None:
        if not 0 <= index < shard_map.num_partitions:
            raise ValueError(
                f"partition index {index} out of range for "
                f"{shard_map.num_partitions} partitions"
            )
        self._inner = inner
        self.index = index
        self._map = shard_map
        self.misroutes = 0
        for attr in sorted(NAME_ROUTED_METHODS):
            target = getattr(inner, attr, None)
            if callable(target):
                setattr(self, attr, self._guarded(attr, target))

    @property
    def inner(self) -> Any:
        return self._inner

    @property
    def shard_map(self) -> ShardMap:
        return self._map

    def install_map(self, shard_map: ShardMap) -> None:
        """Adopt a higher-epoch map (partition count is immutable)."""
        if shard_map.epoch <= self._map.epoch:
            raise ValueError(
                f"shard-map epoch must increase "
                f"({self._map.epoch} -> {shard_map.epoch})"
            )
        if shard_map.num_partitions != self._map.num_partitions:
            raise ValueError("epoch bump cannot change the partition count")
        self._map = shard_map

    def get_shard_map(self) -> Dict[str, Any]:
        """RPC: the current map, for client bootstrap/refresh."""
        return self._map.to_json_dict()

    def _check(self, name: str) -> None:
        owner = self._map.partition_for(name)
        if owner != self.index:
            self.misroutes += 1
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.count("ns_partition_misroutes_total")
            raise WrongPartitionError(
                f"file {name!r} belongs to partition {owner}, "
                f"not {self.index} (map epoch {self._map.epoch})",
                epoch=self._map.epoch,
            )

    def _guarded(self, attr: str, bound: Callable[..., Any]) -> Callable[..., Any]:
        def guarded(*args: Any, **kwargs: Any) -> Any:
            self._check(str(args[0]))
            if attr == "move":
                dst = str(args[1])
                if self._map.partition_for(dst) != self.index:
                    # Cross-partition renames would need a distributed
                    # transaction across partitions; the sharded
                    # namespace documents them as unsupported.
                    raise InvalidRequestError(
                        f"cross-partition move {args[0]!r} -> {dst!r} "
                        "is not supported"
                    )
            return bound(*args, **kwargs)

        return guarded

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionGuard(index={self.index}, "
            f"epoch={self._map.epoch})"
        )
