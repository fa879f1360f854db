"""The nameserver as a Paxos-replicated state machine (§3.3.1).

Every mutation — create, delete, record_append — is committed to the
replicated log before it is applied, so any majority of replicas survives
the loss of the rest with an identical namespace.  Two design points keep
replicas byte-identical:

* **placement is decided once**: the proposing replica runs the placement
  policy and the log entry carries the finished metadata (replica list
  and file id included), so no replica ever rolls its own dice;
* the underlying :class:`~repro.fs.nameserver.Nameserver` gains an
  ``install`` path for applying pre-built metadata.

Lookups are served from the contacted replica's local state without a log
round-trip (reads behind a failed-over leader can be momentarily stale —
the same read semantics the paper's single nameserver plus client caches
already imply).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.consensus.paxos import PaxosReplica
from repro.fs.chunks import DEFAULT_CHUNK_BYTES, DEFAULT_REPLICATION, FileMetadata
from repro.fs.errors import FileAlreadyExistsError, FileNotFoundFsError
from repro.fs.nameserver import Nameserver
from repro.fs.placement import PlacementPolicy


class ReplicatedNameserver:
    """One replica of the replicated nameserver.

    Exposes the same RPC surface as :class:`~repro.fs.nameserver.Nameserver`
    (create/lookup/delete/record_append), so clients are oblivious to
    replication — they simply point at any replica endpoint.
    """

    def __init__(
        self,
        endpoint: str,
        local: Nameserver,
        placement: PlacementPolicy,
    ):
        self.endpoint = endpoint
        self._local = local
        self._placement = placement
        self._paxos: Optional[PaxosReplica] = None

    def bind(self, paxos: PaxosReplica) -> None:
        self._paxos = paxos

    # ------------------------------------------------------------------
    # State machine transition (called by Paxos, in slot order)
    # ------------------------------------------------------------------

    def apply(self, command: dict):
        op = command["op"]
        if op == "create":
            return self._local.install(command["metadata"])
        if op == "delete":
            try:
                return self._local.delete(command["name"])
            except FileNotFoundFsError:
                return None  # deleted by an earlier committed command
        if op == "record_append":
            try:
                return self._local.record_append(
                    command["name"], command["size_bytes"]
                )
            except FileNotFoundFsError:
                return None
        if op == "move":
            try:
                return self._local.move(command["src"], command["dst"])
            except FileNotFoundFsError:
                return None
        if op == "update_replicas":
            try:
                return self._local.update_replicas(
                    command["name"], command["replicas"]
                )
            except FileNotFoundFsError:
                return None
        raise ValueError(f"unknown replicated command {op!r}")

    # ------------------------------------------------------------------
    # RPC surface (same shape as the plain nameserver)
    # ------------------------------------------------------------------

    def create(
        self,
        name: str,
        replication: int = DEFAULT_REPLICATION,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        writer: Optional[str] = None,
    ) -> Generator:
        if self._local.exists(name):
            raise FileAlreadyExistsError(f"file {name!r} already exists")
        replicas = self._placement.place(replication, writer=writer)
        metadata = FileMetadata(
            name=name,
            file_id=self._local.new_file_id(),
            size_bytes=0,
            chunk_bytes=chunk_bytes,
            replicas=tuple(replicas),
        )
        result = yield from self._propose(
            {"op": "create", "metadata": metadata.to_json_dict()}
        )
        if result is None:
            raise FileAlreadyExistsError(f"file {name!r} already exists")
        return result

    def lookup(self, name: str) -> dict:
        return self._local.lookup(name)

    def exists(self, name: str) -> bool:
        return self._local.exists(name)

    def delete(self, name: str) -> Generator:
        if not self._local.exists(name):
            raise FileNotFoundFsError(f"no file named {name!r}")
        result = yield from self._propose({"op": "delete", "name": name})
        if result is None:
            raise FileNotFoundFsError(f"no file named {name!r}")
        return result

    def move(self, src_name: str, dst_name: str) -> Generator:
        if not self._local.exists(src_name):
            raise FileNotFoundFsError(f"no file named {src_name!r}")
        result = yield from self._propose(
            {"op": "move", "src": src_name, "dst": dst_name}
        )
        if result is None:
            raise FileNotFoundFsError(f"no file named {src_name!r}")
        return result

    def record_append(
        self,
        name: str,
        new_size_bytes: int,
        epoch: Optional[int] = None,
        primary: Optional[str] = None,
    ) -> Generator:
        """Replicate a committed append's size.

        ``epoch``/``primary`` are what the committing dataserver stamps
        on every report; there is no lease service beside a Paxos group
        (metadata primaryship is the ordering authority), so they are
        not validated here.
        """
        result = yield from self._propose(
            {"op": "record_append", "name": name, "size_bytes": new_size_bytes}
        )
        if result is None:
            raise FileNotFoundFsError(f"no file named {name!r}")
        return result

    def update_replicas(self, name: str, replicas: List[str]) -> Generator:
        if not self._local.exists(name):
            raise FileNotFoundFsError(f"no file named {name!r}")
        result = yield from self._propose(
            {"op": "update_replicas", "name": name, "replicas": list(replicas)}
        )
        if result is None:
            raise FileNotFoundFsError(f"no file named {name!r}")
        return result

    def list_files(self) -> List[str]:
        return self._local.list_files()

    def close(self) -> None:
        """Flush this replica's local database."""
        self._local.close()

    def _propose(self, command: dict) -> Generator:
        if self._paxos is None:
            raise RuntimeError("replica not bound to a Paxos instance")
        result = yield from self._paxos.propose(command)
        return result


def build_replicated_nameserver(
    endpoints: List[str],
    fabric,
    loop,
    placement_factory,
    db_directory_factory,
    rng_factory,
):
    """Wire a full replica group.

    Parameters
    ----------
    endpoints:
        RPC endpoints (≥ 3) hosting the replicas.
    placement_factory / db_directory_factory / rng_factory:
        Called once per endpoint to build that replica's placement policy,
        database directory and file-id RNG.  For identical file ids across
        replicas the *proposer* generates ids, so per-replica RNGs only
        matter on the proposing replica.

    Returns
    -------
    dict
        endpoint -> :class:`ReplicatedNameserver`, each registered on the
        fabric under service ``"nameserver"``.
    """
    from repro.consensus.paxos import PaxosCluster

    replicas = {}
    for endpoint in endpoints:
        local = Nameserver(
            db_directory_factory(endpoint),
            placement_factory(endpoint),
            rng=rng_factory(endpoint),
        )
        replicas[endpoint] = ReplicatedNameserver(
            endpoint, local, placement_factory(endpoint)
        )
        fabric.register(endpoint, "nameserver", replicas[endpoint])

    cluster = PaxosCluster(
        endpoints,
        fabric,
        loop,
        apply_fn_factory=lambda ep: replicas[ep].apply,
    )
    for endpoint in endpoints:
        replicas[endpoint].bind(cluster.replica(endpoint))
    return replicas
