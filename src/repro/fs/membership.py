"""Dataserver liveness tracking and automatic re-replication.

The paper's design goals (§3.2) include "similar … reliability, fault
tolerance and availability properties to that of current widely-deployed
distributed filesystems, namely, GFS and HDFS" — whose core availability
mechanism is heartbeat-driven failure detection followed by
re-replication of under-replicated files.  This module supplies that
substrate:

* :class:`MembershipTracker` — receives dataserver heartbeats (an RPC
  service co-located with the nameserver) and classifies hosts as dead
  once they miss heartbeats for ``timeout`` seconds;
* :class:`HeartbeatSender` — the dataserver-side periodic beacon;
* :class:`ReplicaManager` — scans the namespace for files with dead
  replicas, copies the data from a surviving replica to a freshly chosen
  host (respecting the fault-domain constraints of §3.1), promotes a
  survivor to primary when the primary died, and updates the mapping.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Sequence, Set

from repro.fs.chunks import FileMetadata
from repro.fs.nameserver import Nameserver
from repro.net.topology import Topology
from repro.sim.engine import EventLoop, PeriodicTimer
from repro.sim.process import Process

if TYPE_CHECKING:
    from repro.fs.leases import LeaseManager
    from repro.rpc.fabric import RpcFabric

MEMBERSHIP_SERVICE = "membership"


class MembershipTracker:
    """Heartbeat registry; registered as an RPC service.

    With a :class:`~repro.fs.leases.LeaseManager` attached, every
    heartbeat also renews the sender's primary leases — the write
    pipeline's liveness signal rides the membership beacon instead of
    adding a second periodic RPC per file.
    """

    def __init__(
        self,
        loop: EventLoop,
        expected_hosts: Sequence[str],
        lease_manager: Optional["LeaseManager"] = None,
    ) -> None:
        self._loop = loop
        self._last_seen: Dict[str, float] = {
            host: loop.now for host in expected_hosts
        }
        self._lease_manager = lease_manager
        self.heartbeats_received = 0

    def heartbeat(self, host_id: str) -> float:
        """RPC handler: a dataserver announced it is alive."""
        self._last_seen[host_id] = self._loop.now
        self.heartbeats_received += 1
        if self._lease_manager is not None:
            self._lease_manager.renew_for_host(host_id)
        return self._loop.now

    def dead_hosts(self, timeout: float) -> List[str]:
        """Hosts silent for longer than ``timeout`` seconds."""
        now = self._loop.now
        return sorted(
            host
            for host, seen in self._last_seen.items()
            if now - seen > timeout
        )

    def alive_hosts(self, timeout: float) -> List[str]:
        now = self._loop.now
        return sorted(
            host
            for host, seen in self._last_seen.items()
            if now - seen <= timeout
        )


class HeartbeatSender:
    """Periodic dataserver beacon to the membership service."""

    def __init__(
        self,
        loop: EventLoop,
        fabric: "RpcFabric",
        host_id: str,
        membership_endpoint: str,
        interval: float = 5.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._loop = loop
        self._fabric = fabric
        self.host_id = host_id
        self._endpoint = membership_endpoint
        self.interval = interval
        self._timer = PeriodicTimer(loop, interval, self._beat, first_delay=0.0)

    def _beat(self) -> None:
        def body() -> Generator:
            from repro.rpc.errors import RpcError

            try:
                yield from self._fabric.invoke(
                    self.host_id,
                    self._endpoint,
                    MEMBERSHIP_SERVICE,
                    "heartbeat",
                    self.host_id,
                )
            except RpcError:
                pass  # membership service unreachable; try again next beat

        Process(self._loop, body(), name=f"heartbeat:{self.host_id}")

    def stop(self) -> None:
        self._timer.stop()


class ReplicaManager:
    """Detects dead replicas and restores the replication factor.

    Repair procedure per damaged file: pick a surviving replica as the
    copy source, pick a replacement host that is alive, not already a
    replica and in an unused rack (falling back to any alive host), push
    the data, then commit the new mapping — with a surviving replica
    promoted to primary when the old primary died.
    """

    def __init__(
        self,
        loop: EventLoop,
        fabric: "RpcFabric",
        nameserver: Nameserver,
        nameserver_endpoint: str,
        membership: MembershipTracker,
        topology: Topology,
        rng: Random,
        lease_manager: "LeaseManager",
        check_interval: float = 10.0,
        heartbeat_timeout: float = 15.0,
    ) -> None:
        self._loop = loop
        self._fabric = fabric
        self._nameserver = nameserver
        self._endpoint = nameserver_endpoint
        self._membership = membership
        self._topo = topology
        self._rng = rng
        self.check_interval = check_interval
        self.heartbeat_timeout = heartbeat_timeout
        #: A repair that moves primaryship also moves the lease (with an
        #: epoch bump) so the promoted survivor can commit immediately
        #: and the dead primary's epoch is fenced.
        self._lease_manager = lease_manager
        self.repairs_completed = 0
        self.files_lost = 0
        self.promotions = 0
        self._repair_in_flight = False
        self._timer = PeriodicTimer(loop, check_interval, self._tick)

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    # Periodic check
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        if self._repair_in_flight:
            return
        dead = set(self._membership.dead_hosts(self.heartbeat_timeout))
        if not dead:
            return
        self._repair_in_flight = True

        def done(_payload: object) -> None:
            self._repair_in_flight = False

        proc = Process(self._loop, self.repair_all(dead), name="replica-repair")
        proc.done_signal.add_waiter(done)

    def repair_all(self, dead: Set[str]) -> Generator:
        """Repair every file with replicas on ``dead`` hosts."""
        repaired = 0
        for name in self._nameserver.list_files():
            try:
                metadata = FileMetadata.from_json_dict(self._nameserver.lookup(name))
            except Exception:  # noqa: BLE001 - deleted concurrently
                continue
            if not set(metadata.replicas) & dead:
                continue
            outcome = yield from self.repair_file(metadata, dead)
            if outcome:
                repaired += 1
        return repaired

    def repair_file(self, metadata: FileMetadata, dead: Set[str]) -> Generator:
        """Restore one file's replication factor; returns success."""
        survivors = [r for r in metadata.replicas if r not in dead]
        if not survivors:
            self.files_lost += 1
            return False
        new_replicas = list(survivors)  # survivors first: promotes a live primary
        needed = len(metadata.replicas) - len(survivors)
        source = survivors[0]
        for _ in range(needed):
            replacement = self._choose_replacement(new_replicas, dead)
            if replacement is None:
                return False
            yield from self._fabric.invoke(
                self._endpoint,
                source,
                "dataserver",
                "push_replica",
                metadata.file_id,
                replacement,
            )
            new_replicas.append(replacement)
        self._nameserver.update_replicas(metadata.name, new_replicas)
        if new_replicas[0] != metadata.primary:
            self._lease_manager.promote(metadata.file_id, new_replicas[0])
            self.promotions += 1
        # Tell the surviving replicas about the rewritten set so their
        # local metadata (the primaryship fallback) matches the
        # nameserver's.  Best-effort: a host that is briefly
        # unreachable will learn the set on its next catch-up/relay.
        from repro.rpc.errors import RpcError

        for replica in new_replicas:
            try:
                yield from self._fabric.invoke(
                    self._endpoint,
                    replica,
                    "dataserver",
                    "update_replica_set",
                    metadata.file_id,
                    list(new_replicas),
                )
            except RpcError:
                continue
        self.repairs_completed += 1
        return True

    def _choose_replacement(
        self, current: Sequence[str], dead: Set[str]
    ) -> Optional[str]:
        alive = [
            h
            for h in self._membership.alive_hosts(self.heartbeat_timeout)
            if h not in current and h not in dead
        ]
        if not alive:
            return None
        used_racks = {self._topo.hosts[r].rack for r in current}
        fresh_racks = [h for h in alive if self._topo.hosts[h].rack not in used_racks]
        pool = fresh_racks or alive
        return pool[self._rng.randrange(len(pool))]
