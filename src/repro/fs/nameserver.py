"""The nameserver (§3.3.1).

Manages the filesystem namespace: file→chunks and file→dataservers
mappings, held in memory as one :class:`FileMetadata` per name (the
paper keeps them in LevelDB with fsync off; durability is not modelled).
Placement happens here at creation time using static fault-domain
information.

Recovery: after an *unexpected* restart the nameserver rebuilds the
mappings by scanning the file metadata stored at the dataservers
(:meth:`Nameserver.rebuild_from_dataservers`).
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.rpc.fabric import RpcFabric

from repro.fs.chunks import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_REPLICATION,
    FileMetadata,
)
from repro.fs.errors import (
    FileAlreadyExistsError,
    FileNotFoundFsError,
    InvalidRequestError,
)
from repro.fs.placement import PlacementPolicy
from repro.sim import instrument
from repro.sim.randomness import seeded_rng


class Nameserver:
    """Centralized namespace manager.

    Parameters
    ----------
    placement:
        Policy choosing replica hosts for new files.
    rng:
        Used to derive deterministic file ids (UUID-shaped) so whole
        simulations are reproducible from one seed.
    """

    def __init__(
        self,
        placement: PlacementPolicy,
        rng: Optional[Random] = None,
    ) -> None:
        self._files: Dict[str, FileMetadata] = {}
        self._placement = placement
        self._rng = rng or seeded_rng(0)
        #: The cluster attaches the :class:`repro.fs.leases.LeaseManager`
        #: co-located with this nameserver here so epoch-stamped
        #: ``record_append`` reports can be fenced.
        self.lease_manager = None
        #: Optional simulated clock (the cluster attaches its event loop)
        #: so nameserver-side telemetry instants carry sim timestamps;
        #: without one the instants are simply skipped.
        self.clock = None
        self.creates = 0
        self.deletes = 0
        self.lookups = 0
        self.fenced_records = 0

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------

    def create(
        self,
        name: str,
        replication: int = DEFAULT_REPLICATION,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        writer: Optional[str] = None,
    ) -> dict:
        """Create a file: place replicas and record the mapping.

        ``writer`` (the creating client's host, when known) lets
        congestion-aware placement policies score the write path.
        Returns the metadata as a JSON dict (the RPC wire format).
        """
        if not name:
            raise InvalidRequestError("file name must be non-empty")
        if name in self._files:
            raise FileAlreadyExistsError(f"file {name!r} already exists")
        replicas = self._placement.place(replication, writer=writer)
        metadata = FileMetadata(
            name=name,
            file_id=self._new_file_id(),
            size_bytes=0,
            chunk_bytes=chunk_bytes,
            replicas=tuple(replicas),
        )
        self._files[name] = metadata
        self.creates += 1
        return metadata.to_json_dict()

    def lookup(self, name: str) -> dict:
        """Fetch a file's metadata (including its current size)."""
        metadata = self._metadata(name)
        self.lookups += 1
        return metadata.to_json_dict()

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> dict:
        """Remove a file from the namespace; returns its final metadata.

        The caller (client library) is responsible for telling the replica
        dataservers to reclaim the chunks.
        """
        metadata = self._metadata(name)
        del self._files[name]
        self.deletes += 1
        return metadata.to_json_dict()

    def move(self, src_name: str, dst_name: str) -> dict:
        """Atomically rename ``src_name`` to ``dst_name``.

        If the destination exists it is replaced — this is the §3.3
        random-write emulation primitive ("creating and modifying a new
        copy of the file and using a move operation to overwrite the
        original").  Returns ``{"moved": metadata, "replaced":
        metadata-or-None}``; the caller reclaims the replaced replicas.
        """
        if not dst_name:
            raise InvalidRequestError("destination name must be non-empty")
        if src_name == dst_name:
            raise InvalidRequestError("move source and destination are identical")
        metadata = self._metadata(src_name)
        replaced = self._files.get(dst_name)
        moved = FileMetadata(
            name=dst_name,
            file_id=metadata.file_id,
            size_bytes=metadata.size_bytes,
            chunk_bytes=metadata.chunk_bytes,
            replicas=metadata.replicas,
        )
        del self._files[src_name]
        self._files[dst_name] = moved
        return {
            "moved": moved.to_json_dict(),
            "replaced": None if replaced is None else replaced.to_json_dict(),
        }

    def record_append(
        self,
        name: str,
        new_size_bytes: int,
        epoch: Optional[int] = None,
        primary: Optional[str] = None,
    ) -> int:
        """Primary dataserver reports a committed append; size is monotonic.

        Appends carry the primary's lease ``epoch`` and identity: with a :class:`LeaseManager` attached,
        the report is validated against the current lease before the
        size moves — the nameserver-side half of write fencing.  A
        fenced-out primary's report raises
        :class:`~repro.fs.errors.StaleEpochError` and changes nothing.
        """
        metadata = self._metadata(name)
        if epoch is not None and primary is not None and self.lease_manager is not None:
            try:
                self.lease_manager.validate(metadata.file_id, primary, epoch)
            except Exception:
                self.fenced_records += 1
                raise
        if new_size_bytes < metadata.size_bytes:
            raise InvalidRequestError(
                f"append would shrink {name!r}: "
                f"{new_size_bytes} < {metadata.size_bytes}"
            )
        self._files[name] = metadata.with_size(new_size_bytes)
        tel = instrument.TELEMETRY
        if tel is not None and self.clock is not None:
            tel.instant(self.clock.now, "ns.record_append", "ns",
                        file=name, size=new_size_bytes, epoch=epoch,
                        primary=primary)
        return new_size_bytes

    def update_replicas(self, name: str, replicas: List[str]) -> dict:
        """Replace a file's replica set (re-replication / migration).

        ``replicas[0]`` becomes the primary, so passing survivors first
        promotes a live host when the old primary died.
        """
        metadata = self._metadata(name)
        if not replicas or len(set(replicas)) != len(replicas):
            raise InvalidRequestError(f"invalid replica set {replicas!r}")
        updated = FileMetadata(
            name=metadata.name,
            file_id=metadata.file_id,
            size_bytes=metadata.size_bytes,
            chunk_bytes=metadata.chunk_bytes,
            replicas=tuple(replicas),
        )
        self._files[name] = updated
        return updated.to_json_dict()

    def list_files(self) -> List[str]:
        """All file names, sorted."""
        return sorted(self._files)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def rebuild_from_dataservers(
        self,
        fabric: "RpcFabric",
        self_endpoint: str,
        dataserver_hosts: Sequence[str],
    ) -> Generator:
        """Unexpected-restart path: rebuild mappings by scanning dataservers.

        Clears the (possibly stale) namespace and repopulates it from the
        metadata each dataserver stores alongside its chunks.  Replica
        preference, highest wins:

        1. **lease epoch** — a replica that saw a higher epoch post-dates
           any promotion, so a stale pre-failover primary that rejoins
           with a long (diverged, since-truncated-elsewhere) tail cannot
           outvote the survivors;
        2. primary flag (the metadata primary ordered every append);
        3. reported size (largest committed length seen).
        """
        self._files.clear()
        recovered = {}
        for host in dataserver_hosts:
            listings = yield from fabric.invoke(
                self_endpoint, host, "dataserver", "list_files"
            )
            for metadata_dict in listings:
                metadata = FileMetadata.from_json_dict(metadata_dict)
                epoch = int(metadata_dict.get("epoch", 0))
                existing = recovered.get(metadata.name)
                if existing is None:
                    recovered[metadata.name] = (
                        metadata, epoch, host == metadata.primary
                    )
                    continue
                current, cur_epoch, from_primary = existing
                if epoch > cur_epoch:
                    recovered[metadata.name] = (
                        metadata, epoch, host == metadata.primary
                    )
                elif epoch == cur_epoch:
                    if host == metadata.primary:
                        recovered[metadata.name] = (metadata, epoch, True)
                    elif not from_primary and metadata.size_bytes > current.size_bytes:
                        recovered[metadata.name] = (metadata, epoch, False)
        for name, (metadata, _, _) in sorted(recovered.items()):
            self._files[name] = metadata
        return len(recovered)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _metadata(self, name: str) -> FileMetadata:
        metadata = self._files.get(name)
        if metadata is None:
            raise FileNotFoundFsError(f"no file named {name!r}")
        return metadata

    def _new_file_id(self) -> str:
        """Deterministic UUID-shaped id derived from the seeded RNG."""
        bits = self._rng.getrandbits(128)
        hex32 = f"{bits:032x}"
        return (
            f"{hex32[0:8]}-{hex32[8:12]}-{hex32[12:16]}-"
            f"{hex32[16:20]}-{hex32[20:32]}"
        )
