"""Replica placement policies.

Placement is decided by the nameserver at file creation using static
fault-domain constraints (§3.3): replicas avoid sharing a rack and at
least one lives in a different pod.

Two concrete policies:

* :class:`PaperEvalPlacement` — the evaluation's traffic matrix (§6.1):
  primary on a uniform-random server, second replica in the *same pod but
  a different rack*, third replica in a *different pod*.
* :class:`HdfsRackAwarePlacement` — the HDFS-style default described in
  §5: two replicas in the same rack, further replicas in other randomly
  selected racks.
"""

from __future__ import annotations

from random import Random
from typing import List, Optional, Sequence

from repro.fs.errors import InvalidRequestError
from repro.net.topology import Topology


class PlacementPolicy:
    """Interface: choose replica hosts for a new file.

    ``writer`` (when known) is the host creating the file; congestion-
    aware policies use it to score the write path, static policies
    ignore it.
    """

    def place(self, replication: int, writer: Optional[str] = None) -> List[str]:
        """Return ``replication`` distinct host ids; index 0 is the primary."""
        raise NotImplementedError


def _choice(rng: Random, items: Sequence[str]) -> str:
    if not items:
        raise InvalidRequestError("no eligible host for replica placement")
    return items[rng.randrange(len(items))]


def spread_pool(
    topology: Topology, chosen: Sequence[str], writer: Optional[str] = None
) -> List[str]:
    """Sorted candidates for a replica beyond the fault-domain slots.

    Hosts on racks no replica uses yet; failing that, any host that is
    neither a replica nor the writer; failing that, any non-replica host.
    Raises :class:`InvalidRequestError` when every host holds a replica.
    """
    used_racks = {topology.hosts[c].rack for c in chosen}
    fresh = sorted(
        h
        for rack in topology.racks()
        if rack not in used_racks
        for h in topology.rack_host_ids(rack)
        if h != writer
    )
    if fresh:
        return fresh
    free = [h for h in sorted(topology.hosts) if h not in chosen]
    if not free:
        raise InvalidRequestError(
            f"cannot place {len(chosen) + 1} replicas on {len(topology.hosts)} hosts"
        )
    return [h for h in free if h != writer] or free


class PaperEvalPlacement(PlacementPolicy):
    """§6.1 placement: primary uniform; 2nd same-pod/other-rack; 3rd other-pod.

    Replication factors beyond 3 place extra replicas in randomly selected
    racks not already used (mirroring "any further replicas are placed in
    other randomly selected racks").
    """

    def __init__(self, topology: Topology, rng: Random) -> None:
        self._topo = topology
        self._rng = rng
        self._hosts = sorted(topology.hosts)

    def place(self, replication: int, writer: Optional[str] = None) -> List[str]:
        if replication < 1:
            raise InvalidRequestError(f"replication must be >= 1, got {replication}")
        primary = _choice(self._rng, self._hosts)
        chosen = [primary]
        if replication == 1:
            return chosen
        primary_host = self._topo.hosts[primary]

        same_pod_other_rack = self._topo.pod_host_ids_off_rack(
            primary_host.pod, primary_host.rack
        )
        if same_pod_other_rack:
            chosen.append(_choice(self._rng, same_pod_other_rack))
        if replication == 2:
            return chosen[:2]

        other_pod = self._topo.host_ids_off_pod(primary_host.pod)
        if other_pod:
            chosen.append(_choice(self._rng, other_pod))

        while len(chosen) < replication:
            chosen.append(_choice(self._rng, spread_pool(self._topo, chosen)))
        return chosen[:replication]


class HdfsRackAwarePlacement(PlacementPolicy):
    """§5 placement: two replicas share the primary's rack, the rest spread."""

    def __init__(self, topology: Topology, rng: Random) -> None:
        self._topo = topology
        self._rng = rng
        self._hosts = sorted(topology.hosts)

    def place(self, replication: int, writer: Optional[str] = None) -> List[str]:
        if replication < 1:
            raise InvalidRequestError(f"replication must be >= 1, got {replication}")
        primary = _choice(self._rng, self._hosts)
        chosen = [primary]
        if replication == 1:
            return chosen
        primary_host = self._topo.hosts[primary]

        same_rack = [
            h for h in self._topo.rack_host_ids(primary_host.rack) if h != primary
        ]
        if same_rack:
            chosen.append(_choice(self._rng, same_rack))

        while len(chosen) < replication:
            chosen.append(_choice(self._rng, spread_pool(self._topo, chosen)))
        return chosen[:replication]
