"""The dataserver (§3.3.2).

Stores file chunks, services reads, and — when it is a file's primary —
orders appends and relays them to the other replica hosts.  Key semantics
from the paper:

* files are append-only; each file is a directory named by its UUID with
  numbered chunk files inside (modelled as an in-memory chunk list, with
  optional real payloads for functional tests);
* only one append is serviced at a time per file (atomic appends);
* reads may run concurrently with an append *unless* they touch the last
  chunk, which the append mutates;
* every read reply carries the file's current size, which is how clients
  discover chunks appended by others despite caching the chunk map.

The dataserver exchanges control messages over the RPC fabric and moves
data through a :class:`DataPlane` (bulk transfers ride the congestion
simulator; the cluster layer provides the concrete implementation).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import repro.fs.annotations as protocheck
from repro.fs.chunks import FileMetadata
from repro.fs.errors import (
    FileNotFoundFsError,
    InvalidRequestError,
    LeaseExpiredError,
    NotPrimaryError,
    StaleEpochError,
)
from repro.fs.leases import LEASE_SERVICE, HeldLeaseTable, LeaseGrant
from repro.net.simulator import FlowAborted
from repro.sim import instrument
from repro.sim.engine import EventLoop
from repro.sim.process import Signal

if TYPE_CHECKING:
    from repro.core.fanout import RelayNode
    from repro.rpc.fabric import RpcFabric
    from repro.sim.process import Process


class DataPlane:
    """Interface the dataserver uses to move bulk data between hosts.

    ``transfer`` is a generator (process-style): it completes when the
    last byte has been delivered.  ``flow_id``/``path`` are optional
    pre-arranged routing decisions (a Mayflower read supplies them; writes
    and baseline reads let the data plane pick, e.g. via ECMP).
    """

    def transfer(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        flow_id: Optional[str] = None,
        path: Optional[Sequence[str]] = None,
        job_id: Optional[str] = None,
    ) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover


@dataclass(frozen=True)
class LedgerEntry:
    """One committed append in a replica's per-file ledger.

    The ledger is the write pipeline's audit trail: every applied append
    records its id, the offset it landed at, its length and the lease
    epoch under which it was committed.  Exactly-once verification walks
    these — an acked append must appear exactly once, at one offset, on
    every replica.
    """

    append_id: str
    offset: int
    length: int
    epoch: int


@dataclass
class StoredFile:
    """One file replica on this dataserver."""

    metadata: FileMetadata
    size_bytes: int = 0
    chunks: List[int] = field(default_factory=list)  # per-chunk byte counts
    #: Real bytes when store_payload, after the first ``zero_prefix``:
    #: zeros committed before any byte was written (the pre-loaded
    #: corpus) are kept as that count, not materialised.
    payload: Optional[bytearray] = None
    zero_prefix: int = 0
    appending: bool = False
    append_waiters: List[Signal] = field(default_factory=list)
    #: Highest lease epoch observed for this file (commits and relays
    #: carrying an older epoch are fenced off).
    epoch: int = 0
    #: Ordered audit trail of applied appends.
    ledger: List[LedgerEntry] = field(default_factory=list)
    #: append_id -> (offset, length) for every locally-applied append —
    #: the idempotence index retried commits and relays dedup against.
    applied_ids: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: append_id -> post-append file size for appends this host (as
    #: primary) fully replicated and recorded; a retried commit of one of
    #: these returns the recorded size without touching anything.
    acked_ids: Dict[str, int] = field(default_factory=dict)
    #: append_id -> (length, data) staged by ``push_data`` awaiting commit.
    staged: Dict[str, Tuple[int, Optional[bytes]]] = field(default_factory=dict)

    def payload_bytes(self, start: int, stop: int) -> Optional[bytes]:
        """Bytes ``[start, stop)`` of the replica, clipped to its size
        (``None`` without a payload); the one read of ``payload``."""
        payload = self.payload
        if payload is None:
            return None
        zeros = self.zero_prefix
        stop = min(stop, zeros + len(payload))
        if stop <= start:
            return b""
        if start >= zeros:
            return bytes(payload[start - zeros : stop - zeros])
        head = b"\x00" * (min(stop, zeros) - start)
        if stop <= zeros:
            return head
        return head + bytes(payload[: stop - zeros])


@dataclass(frozen=True)
class ReadReply:
    """Reply to a read RPC: data (when payloads are stored) + current size."""

    file_id: str
    offset: int
    length: int
    file_size: int
    data: Optional[bytes]


class Dataserver:
    """Chunk storage and append coordination for one host."""

    def __init__(
        self,
        host_id: str,
        loop: EventLoop,
        fabric: "RpcFabric",
        dataplane: DataPlane,
        nameserver_endpoint: str,
        store_payload: bool = False,
    ) -> None:
        self.host_id = host_id
        self._loop = loop
        self._fabric = fabric
        self._dataplane = dataplane
        self.store_payload = store_payload
        #: Where the nameserver and its co-located lease service live.
        self._nameserver_endpoint = nameserver_endpoint
        self._held_leases = HeldLeaseTable(loop)
        self._files: Dict[str, StoredFile] = {}
        self.appends_served = 0
        self.reads_served = 0
        self.pushes_staged = 0
        self.appends_deduplicated = 0
        self.catch_ups_served = 0
        self.relays_caught_up = 0
        self.truncations = 0
        self.lease_fencings = 0
        instrument.notify_component("dataserver", self)

    # ------------------------------------------------------------------
    # File lifecycle (control plane)
    # ------------------------------------------------------------------

    def create_file(self, metadata_dict: dict) -> str:
        """Create an empty local replica of a file (idempotent)."""
        metadata = FileMetadata.from_json_dict(metadata_dict)
        if metadata.file_id not in self._files:
            self._files[metadata.file_id] = StoredFile(
                metadata=metadata,
                payload=bytearray() if self.store_payload else None,
            )
        return metadata.file_id

    def delete_file(self, file_id: str) -> bool:
        """Drop the local replica; returns whether it existed."""
        return self._files.pop(file_id, None) is not None

    def has_file(self, file_id: str) -> bool:
        return file_id in self._files

    def rename_file(self, file_id: str, new_name: str) -> bool:
        """Update the local metadata's name after a namespace move."""
        stored = self._stored(file_id)
        old = stored.metadata
        stored.metadata = FileMetadata(
            new_name, old.file_id, old.size_bytes, old.chunk_bytes, old.replicas
        )
        return True

    def file_size(self, file_id: str) -> int:
        return self._stored(file_id).size_bytes

    def list_files(self) -> List[dict]:
        """Local metadata of every replica held here (nameserver rebuild).

        Sizes reflect this replica's committed length, which on the primary
        is authoritative.
        """
        result = []
        for stored in self._files.values():
            meta = stored.metadata.with_size(stored.size_bytes)
            meta_dict = meta.to_json_dict()
            meta_dict["epoch"] = stored.epoch
            result.append(meta_dict)
        return sorted(result, key=lambda m: m["file_id"])

    # ------------------------------------------------------------------
    # Appends: two-phase, lease-guarded (primary orders and relays)
    # ------------------------------------------------------------------
    #
    #   1. ``push_data``   — the writer streams the bytes to the primary,
    #      which *stages* them under the client's append id (no ordering,
    #      no lock, no visibility to readers);
    #   2. ``commit_append`` — the primary validates its lease (fencing),
    #      serializes the append under the per-file lock, stamps the
    #      current lease epoch, fans the commit out over the planned
    #      relay topology, reports the epoch-stamped size to the
    #      nameserver, and only then acknowledges.
    #
    # Secondaries (``relay_append``) fence stale epochs, repair
    # themselves before applying — catching up missed commits from the
    # relay parent (``serve_catch_up``) and truncating diverged tails a
    # fenced-out primary left behind — and forward down chain topologies.
    # Every applied append lands in the replica's :class:`LedgerEntry`
    # list, the audit trail exactly-once verification checks.

    @contextmanager
    def _stage_span(
        self, name: str, append_id: Optional[str], **args: object
    ) -> Iterator[None]:
        """Child span for one write-pipeline stage, installed ambiently.

        Unified stage naming (``ds.push_data`` / ``ds.commit_append`` /
        ``ds.relay`` / ``ds.catch_up``), tagged with the append id and
        parented under the rpc span that delivered the stage — so the
        analyze engine can attribute an append's latency to push vs
        commit vs relay hops by name.  Safe inside generator methods:
        the ambient context the block installs is saved/restored per
        process resume, and ``__exit__`` runs in the owning process.
        """
        tel = instrument.TELEMETRY
        if tel is None:
            yield
            return
        span_args = dict(args)
        if append_id is not None:
            span_args["append"] = append_id
        ctx = tel.start_span(
            self._loop.now, name, "ds", track="ds",
            span_id=tel.next_id("ds"), host=self.host_id, **span_args,
        )
        previous = instrument.set_context(ctx)
        try:
            yield
        finally:
            instrument.set_context(previous)
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.finish_span(self._loop.now, ctx, name, "ds", track="ds")

    def push_data(
        self,
        file_id: str,
        append_id: str,
        size_bytes: int,
        from_host: str,
        data: Optional[bytes] = None,
        path: Optional[Sequence[str]] = None,
        job_id: Optional[str] = None,
    ) -> Generator:
        """Phase one: stage the writer's bytes under ``append_id``.

        Staging is idempotent and lock-free — the bytes become visible
        only when ``commit_append`` orders them.  A push for an append
        that already committed is a no-op (the retry's commit will dedup).
        """
        stored = self._stored(file_id)
        if size_bytes <= 0:
            raise InvalidRequestError(f"append size must be positive, got {size_bytes}")
        if data is not None and len(data) != size_bytes:
            raise InvalidRequestError("append data length does not match size")
        if append_id in stored.acked_ids or append_id in stored.applied_ids:
            return stored.size_bytes
        with self._stage_span("ds.push_data", append_id,
                              file=stored.metadata.name, bytes=size_bytes):
            yield from self._dataplane.transfer(
                from_host, self.host_id, size_bytes, path=path, job_id=job_id
            )
            stored.staged[append_id] = (
                size_bytes, bytes(data) if data is not None else None
            )
            self.pushes_staged += 1
        return size_bytes

    def commit_append(
        self,
        file_id: str,
        append_id: str,
        from_host: str,
        children: Sequence["RelayNode"] = (),
        job_id: Optional[str] = None,
    ) -> Generator:
        """Phase two: order, stamp, relay, record, acknowledge.

        ``children`` is the relay topology (a tuple of
        :class:`repro.core.fanout.RelayNode`) the Flowserver planned —
        the primary's direct relay targets, each possibly carrying its
        own onward chain.  The append is acknowledged only after every
        replica in the topology applied it and the nameserver accepted
        the epoch-stamped size; a retry of an already-acknowledged
        append returns the recorded size untouched.
        """
        stored = self._stored(file_id)
        if append_id in stored.acked_ids:
            self.appends_deduplicated += 1
            return stored.acked_ids[append_id]
        with self._stage_span("ds.commit_append", append_id,
                              file=stored.metadata.name):
            try:
                epoch = yield from self._ensure_lease(stored)
            except BaseException:
                # Fenced: the retry re-pushes wherever it commits next.
                stored.staged.pop(append_id, None)
                raise
            yield from self._acquire_append_lock(stored)
            try:
                if append_id in stored.acked_ids:
                    # A duplicate commit that waited on the lock while the
                    # original relayed and acknowledged.
                    self.appends_deduplicated += 1
                    return stored.acked_ids[append_id]
                if append_id in stored.applied_ids:
                    # Applied by an earlier (timed-out or relay-failed)
                    # attempt — or relayed to us before we were promoted.
                    offset, length = stored.applied_ids[append_id]
                    self.appends_deduplicated += 1
                else:
                    staged = stored.staged.get(append_id)
                    if staged is None:
                        raise InvalidRequestError(
                            f"commit of unstaged append {append_id!r} "
                            f"(push_data must precede commit_append)"
                        )
                    length, data = staged
                    offset = stored.size_bytes
                    self._apply_entry(
                        stored,
                        LedgerEntry(
                            append_id=append_id, offset=offset,
                            length=length, epoch=epoch,
                        ),
                        data,
                    )
                relay_data = self._entry_bytes(stored, append_id, offset, length)
                entry = LedgerEntry(
                    append_id=append_id, offset=offset, length=length, epoch=epoch
                )
                yield from self._relay_to_children(
                    stored, entry, relay_data, children, job_id
                )
                try:
                    yield from self._fabric.invoke(
                        self.host_id,
                        self._nameserver_endpoint,
                        "nameserver",
                        "record_append",
                        stored.metadata.name,
                        stored.size_bytes,
                        epoch,
                        self.host_id,
                    )
                except Exception as err:
                    remote = getattr(err, "remote_error", None)
                    if isinstance(remote, StaleEpochError):
                        # Fenced at the nameserver: our authority lapsed
                        # between the lease check and the record.  The
                        # append is NOT acknowledged; the current primary
                        # repairs our tail on its next relay.
                        self.lease_fencings += 1
                        raise remote
                    raise
                new_size = stored.size_bytes
                stored.acked_ids[append_id] = new_size
                self.appends_served += 1
                tel = instrument.TELEMETRY
                if tel is not None:
                    tel.instant(self._loop.now, "ds.commit_append", "ds",
                                host=self.host_id, file=stored.metadata.name,
                                append=append_id, epoch=epoch, size=new_size)
                return new_size
            finally:
                # Acked or failed, this attempt is over: a retry re-pushes
                # before it commits, so its staging is never needed again.
                stored.staged.pop(append_id, None)
                self._release_append_lock(stored)

    def relay_append(
        self,
        file_id: str,
        append_id: str,
        size_bytes: int,
        from_host: str,
        data: Optional[bytes],
        expected_offset: int,
        epoch: int,
        path: Optional[Sequence[str]] = None,
        children: Sequence["RelayNode"] = (),
        job_id: Optional[str] = None,
    ) -> Generator:
        """Secondary-side commit: fence, repair, apply, forward.

        ``expected_offset`` is where the parent committed this append.
        A replica that is *behind* (missed earlier commits, e.g. a relay
        that failed mid-storm) first catches the gap up from the parent;
        one that is *ahead* carries a diverged tail written by a since-
        fenced primary and truncates it — the carried epoch, already
        validated against this replica's highest-seen epoch, is the
        authority for that repair.
        """
        stored = self._stored(file_id)
        with self._stage_span("ds.relay", append_id,
                              file=stored.metadata.name, epoch=epoch,
                              offset=expected_offset):
            if epoch < stored.epoch:
                self.lease_fencings += 1
                raise StaleEpochError(
                    f"relay of {append_id!r} at epoch {epoch} rejected by "
                    f"{self.host_id} (local epoch {stored.epoch})"
                )
            yield from self._acquire_append_lock(stored)
            try:
                stored.epoch = max(stored.epoch, epoch)
                if append_id in stored.applied_ids:
                    self.appends_deduplicated += 1
                else:
                    if stored.size_bytes > expected_offset:
                        self._truncate(stored, expected_offset)
                    if stored.size_bytes < expected_offset:
                        yield from self._catch_up(
                            stored, from_host, expected_offset, job_id
                        )
                    if stored.size_bytes != expected_offset:
                        raise InvalidRequestError(
                            f"replica {self.host_id} failed to converge to "
                            f"offset {expected_offset} for {append_id!r} "
                            f"(at {stored.size_bytes})"
                        )
                    yield from self._dataplane.transfer(
                        from_host, self.host_id, size_bytes, path=path,
                        job_id=job_id,
                    )
                    self._apply_entry(
                        stored,
                        LedgerEntry(
                            append_id=append_id, offset=expected_offset,
                            length=size_bytes, epoch=epoch,
                        ),
                        data,
                    )
                # Ordered here by someone else's commit: whatever a client
                # staged under this id will never be committed from it.
                stored.staged.pop(append_id, None)
                # Forward down the chain even when we deduped: our children
                # may have missed the commit we already have.
                entry = LedgerEntry(
                    append_id=append_id, offset=expected_offset,
                    length=size_bytes, epoch=epoch,
                )
                relay_data = self._entry_bytes(
                    stored, append_id, expected_offset, size_bytes
                )
                yield from self._relay_to_children(
                    stored, entry, relay_data, children, job_id
                )
                return stored.size_bytes
            finally:
                self._release_append_lock(stored)

    def serve_catch_up(
        self,
        file_id: str,
        offset: int,
        upto: int,
        to_host: str,
        job_id: Optional[str] = None,
    ) -> Generator:
        """Stream the committed range ``[offset, upto)`` plus its ledger.

        The repair source side: a behind replica pulls the commits it
        missed before applying a new one.  Only reads committed state —
        no locks taken, so a primary mid-commit can serve catch-ups for
        the offsets below the append it is relaying.
        """
        stored = self._stored(file_id)
        upto = min(upto, stored.size_bytes)
        if offset < 0 or offset > upto:
            raise InvalidRequestError(
                f"invalid catch-up range [{offset}, {upto}) of "
                f"{stored.size_bytes}-byte replica"
            )
        entries = [e for e in stored.ledger if offset <= e.offset < upto]
        length = upto - offset
        if length > 0:
            yield from self._dataplane.transfer(
                self.host_id, to_host, length, job_id=job_id
            )
        data = stored.payload_bytes(offset, upto)
        self.catch_ups_served += 1
        return {"offset": offset, "upto": upto, "entries": entries,
                "data": data, "epoch": stored.epoch}

    def append_ledger(self, file_id: str) -> List[LedgerEntry]:
        """This replica's ordered append ledger (verification RPC)."""
        return list(self._stored(file_id).ledger)

    @protocheck.fenced(
        reason="replica-set install is driven by the nameserver-side "
        "replica manager, the membership authority; there is no lease "
        "to check because membership changes are what move leases"
    )
    def update_replica_set(self, file_id: str, replicas: Sequence[str]) -> bool:
        """Refresh local metadata after the replica manager rewrote it.

        Keeps the dataserver's notion of the replica set (and thus its
        metadata-primaryship fallback) in sync with the nameserver after
        failover promotion or re-replication.
        """
        stored = self._files.get(file_id)
        if stored is None:
            return False
        stored.metadata = replace(stored.metadata, replicas=tuple(replicas))
        return True

    def revoke_leases(self) -> int:
        """Drop every cached lease grant (revocation fault delivery).

        The next commit on each file re-acquires from the manager and
        observes the revocation's epoch bump.  Returns the number of
        cached grants dropped.
        """
        return self._held_leases.revoke_all()

    def _ensure_lease(self, stored: StoredFile) -> Generator:
        """Validate this host's authority to order appends; returns epoch.

        A locally-valid grant is the fast path; otherwise the manager is
        asked — which either refreshes the grant (we still hold the
        lease, or it lapsed with no other claimant) or fences us out
        with :class:`LeaseExpiredError`.  Only the file's metadata
        primary may claim a free lease; another replica orders appends
        only under a lease the manager moved to it (promotion).
        """
        file_id = stored.metadata.file_id
        if self.host_id not in stored.metadata.replicas:
            raise NotPrimaryError(
                f"{self.host_id} is no longer a replica of "
                f"{stored.metadata.name!r}"
            )
        grant = self._held_leases.valid(file_id)
        if grant is None:
            try:
                grant_dict = yield from self._fabric.invoke(
                    self.host_id,
                    self._nameserver_endpoint,
                    LEASE_SERVICE,
                    "acquire",
                    file_id,
                    self.host_id,
                    stored.metadata.primary == self.host_id,
                )
            except Exception as err:
                remote = getattr(err, "remote_error", None)
                if isinstance(remote, LeaseExpiredError):
                    self.lease_fencings += 1
                    self._held_leases.drop(file_id)
                    raise remote
                if isinstance(remote, NotPrimaryError):
                    raise remote
                raise
            grant = LeaseGrant.from_json_dict(grant_dict)
            self._held_leases.install(grant)
        stored.epoch = max(stored.epoch, grant.epoch)
        return grant.epoch

    def _apply_entry(
        self, stored: StoredFile, entry: LedgerEntry, data: Optional[bytes]
    ) -> None:
        if entry.offset != stored.size_bytes:
            raise InvalidRequestError(
                f"append {entry.append_id!r} applies at {entry.offset}, "
                f"replica is at {stored.size_bytes}"
            )
        self._commit_append(stored, entry.length, data)
        stored.ledger.append(entry)
        stored.applied_ids[entry.append_id] = (entry.offset, entry.length)

    def _entry_bytes(
        self, stored: StoredFile, append_id: str, offset: int, length: int
    ) -> Optional[bytes]:
        """The payload bytes of one applied append (for relays/retries)."""
        staged = stored.staged.get(append_id)
        if staged is not None and staged[1] is not None:
            return staged[1]
        return stored.payload_bytes(offset, offset + length)

    def _truncate(self, stored: StoredFile, new_size: int) -> None:
        """Cut a diverged tail back to ``new_size``, purging its ledger.

        Purging ``applied_ids`` alongside the entries is what keeps a
        re-relayed append (whose offset changed after an interleaved
        commit) from being wrongly deduplicated against its dead first
        incarnation.
        """
        if new_size >= stored.size_bytes:
            return
        if any(e.offset < new_size < e.offset + e.length for e in stored.ledger):
            raise InvalidRequestError(
                f"truncation to {new_size} would split a ledger entry"
            )
        removed = [e for e in stored.ledger if e.offset >= new_size]
        for entry in removed:
            stored.applied_ids.pop(entry.append_id, None)
            stored.acked_ids.pop(entry.append_id, None)
        stored.ledger = [e for e in stored.ledger if e.offset < new_size]
        chunk_bytes = stored.metadata.chunk_bytes
        chunks: List[int] = []
        remaining = new_size
        while remaining > 0:
            take = min(chunk_bytes, remaining)
            chunks.append(take)
            remaining -= take
        stored.chunks = chunks
        stored.size_bytes = new_size
        if stored.payload is not None:
            if new_size >= stored.zero_prefix:
                del stored.payload[new_size - stored.zero_prefix :]
            else:
                stored.zero_prefix = new_size
                stored.payload.clear()
        self.truncations += 1
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(self._loop.now, "ds.truncate", "ds",
                        host=self.host_id, file=stored.metadata.name,
                        size=new_size, purged=len(removed))

    def _catch_up(
        self,
        stored: StoredFile,
        source: str,
        upto: int,
        job_id: Optional[str],
    ) -> Generator:
        """Pull and apply the commits in ``[size, upto)`` from ``source``."""
        with self._stage_span("ds.catch_up", None, file=stored.metadata.name,
                              source=source, upto=upto):
            reply = yield from self._fabric.invoke(
                self.host_id,
                source,
                "dataserver",
                "serve_catch_up",
                stored.metadata.file_id,
                stored.size_bytes,
                upto,
                self.host_id,
                job_id,
            )
            base = reply["offset"]
            blob = reply["data"]
            for entry in reply["entries"]:
                if entry.append_id in stored.applied_ids:
                    continue
                chunk = (
                    blob[entry.offset - base : entry.offset - base + entry.length]
                    if blob is not None
                    else None
                )
                self._apply_entry(stored, entry, chunk)
            stored.epoch = max(stored.epoch, reply["epoch"])
            self.relays_caught_up += 1

    def _relay_to_children(
        self,
        stored: StoredFile,
        entry: LedgerEntry,
        data: Optional[bytes],
        children: Sequence["RelayNode"],
        job_id: Optional[str],
    ) -> Generator:
        """Fan one commit out to the planned relay children, in parallel."""
        if not children:
            return
        procs = [
            self._spawn_pipeline_relay(stored, entry, data, child, job_id)
            for child in children
        ]
        for proc in procs:
            yield proc

    def _spawn_pipeline_relay(
        self,
        stored: StoredFile,
        entry: LedgerEntry,
        data: Optional[bytes],
        child: "RelayNode",
        job_id: Optional[str],
    ) -> "Process":
        from repro.sim.process import Process

        def relay() -> Generator:
            result = yield from self._fabric.invoke(
                self.host_id,
                child.host,
                "dataserver",
                "relay_append",
                stored.metadata.file_id,
                entry.append_id,
                entry.length,
                self.host_id,
                data,
                entry.offset,
                entry.epoch,
                child.path,
                tuple(child.children),
                job_id,
            )
            return result

        return Process(
            self._loop,
            relay(),
            name=f"pipe-relay:{stored.metadata.file_id}->{child.host}",
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def serve_read(
        self,
        file_id: str,
        offset: int,
        length: int,
        to_host: str,
        flow_id: Optional[str] = None,
        path: Optional[Sequence[str]] = None,
        job_id: Optional[str] = None,
    ) -> Generator:
        """Send ``length`` bytes starting at ``offset`` to ``to_host``.

        Completes when the last byte is delivered.  Reads touching the
        last chunk wait for any in-flight append (§3.3.2).
        """
        stored = self._stored(file_id)
        if offset < 0 or length <= 0:
            raise InvalidRequestError(f"invalid read range {offset}+{length}")
        if self._touches_last_chunk(stored, offset, length):
            yield from self._wait_for_append(stored)
        if offset + length > stored.size_bytes:
            raise InvalidRequestError(
                f"read past end of file: {offset}+{length} > {stored.size_bytes}"
            )
        try:
            yield from self._dataplane.transfer(
                self.host_id, to_host, length, flow_id=flow_id, path=path, job_id=job_id
            )
        except FlowAborted as exc:
            # Attach the delivered payload prefix so a resuming client
            # keeps the bytes that made it across before the failure.
            delivered = min(int(exc.bytes_delivered), length)
            if stored.payload is not None and delivered > 0:
                exc.data = stored.payload_bytes(offset, offset + delivered)
            raise
        self.reads_served += 1
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(self._loop.now, "ds.read", "ds",
                        host=self.host_id, to=to_host, bytes=length)
        data = stored.payload_bytes(offset, offset + length)
        return ReadReply(
            file_id=file_id,
            offset=offset,
            length=length,
            file_size=stored.size_bytes,
            data=data,
        )

    def push_replica(self, file_id: str, target_host: str) -> Generator:
        """Copy this replica to ``target_host`` (re-replication source side).

        Moves the committed bytes over the data plane, then installs the
        replica remotely.  Used by the replica manager when a dataserver
        dies and the file drops below its replication factor.
        """
        stored = self._stored(file_id)
        yield from self._dataplane.transfer(
            self.host_id, target_host, stored.size_bytes
        )
        payload = stored.payload_bytes(0, stored.size_bytes)
        metadata = stored.metadata.with_size(stored.size_bytes)
        result = yield from self._fabric.invoke(
            self.host_id,
            target_host,
            "dataserver",
            "install_replica",
            metadata.to_json_dict(),
            stored.size_bytes,
            payload,
            list(stored.ledger),
            stored.epoch,
        )
        return result

    @protocheck.fenced(
        reason="replica installation is initiated by push_replica after "
        "a membership decision; the adopted ledger carries the source's "
        "epoch, and a stale source is caught by the epoch-preferring "
        "nameserver rebuild, not by a lease check here"
    )
    def install_replica(
        self,
        metadata_dict: dict,
        size_bytes: int,
        payload: Optional[bytes] = None,
        ledger: Optional[List[LedgerEntry]] = None,
        epoch: int = 0,
    ) -> str:
        """Receive a pushed replica: create the file and commit its bytes.

        When the source shipped its append ledger the new replica adopts
        it (with the source's epoch), so exactly-once verification and
        dedup survive re-replication.
        """
        file_id = self.create_file(metadata_dict)
        stored = self._stored(file_id)
        if stored.size_bytes < size_bytes:
            delta = size_bytes - stored.size_bytes
            data = payload[stored.size_bytes:] if payload is not None else None
            self._commit_append(stored, delta, data)
        if ledger is not None:
            for entry in ledger:
                if entry.append_id not in stored.applied_ids:
                    stored.ledger.append(entry)
                    stored.applied_ids[entry.append_id] = (
                        entry.offset, entry.length,
                    )
            stored.ledger.sort(key=lambda e: e.offset)
        stored.epoch = max(stored.epoch, epoch)
        return file_id

    @protocheck.exempt(
        reason="bootstrap fixture hook: materializes a corpus that "
        "predates the measurement window, outside the append protocol"
    )
    def load_preexisting(self, file_id: str, size_bytes: int) -> None:
        """Materialize pre-existing data without network transfers.

        A bootstrap/fixture hook for experiments whose corpus existed
        before the measurement window (e.g. Fig. 8's read workload); it
        commits chunks exactly as a completed append would, but moves no
        bytes over the data plane.
        """
        stored = self._stored(file_id)
        if size_bytes < 0:
            raise InvalidRequestError(f"size must be non-negative, got {size_bytes}")
        if size_bytes > 0:
            self._commit_append(stored, size_bytes, None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _stored(self, file_id: str) -> StoredFile:
        stored = self._files.get(file_id)
        if stored is None:
            raise FileNotFoundFsError(f"no file {file_id!r} on {self.host_id}")
        return stored

    def _commit_append(
        self, stored: StoredFile, size_bytes: int, data: Optional[bytes]
    ) -> None:
        chunk_bytes = stored.metadata.chunk_bytes
        remaining = size_bytes
        while remaining > 0:
            if not stored.chunks or stored.chunks[-1] >= chunk_bytes:
                stored.chunks.append(0)
            room = chunk_bytes - stored.chunks[-1]
            take = min(room, remaining)
            stored.chunks[-1] += take
            remaining -= take
        stored.size_bytes += size_bytes
        if stored.payload is not None:
            if data is None and not stored.payload:
                stored.zero_prefix += size_bytes
            else:
                stored.payload.extend(data if data is not None else b"\x00" * size_bytes)

    def _touches_last_chunk(self, stored: StoredFile, offset: int, length: int) -> bool:
        if not stored.appending:
            return False
        chunk_bytes = stored.metadata.chunk_bytes
        last_start = max(0, (len(stored.chunks) - 1)) * chunk_bytes
        return offset + length > last_start

    def _wait_for_append(self, stored: StoredFile) -> Generator:
        """Block (without acquiring) until no append is in flight."""
        while stored.appending:
            waiter = Signal(self._loop, name=f"read-wait:{stored.metadata.file_id}")
            stored.append_waiters.append(waiter)
            yield waiter

    def _acquire_append_lock(self, stored: StoredFile) -> Generator:
        while stored.appending:
            waiter = Signal(self._loop, name=f"append-wait:{stored.metadata.file_id}")
            stored.append_waiters.append(waiter)
            yield waiter
        stored.appending = True

    def _release_append_lock(self, stored: StoredFile) -> None:
        stored.appending = False
        waiters, stored.append_waiters = stored.append_waiters, []
        for waiter in waiters:
            waiter.fire()
