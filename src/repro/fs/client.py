"""The Mayflower client library (§5).

Provides an HDFS-like interface — create, read, append (write), delete —
implemented as cooperative processes over the RPC fabric.  During reads the
client consults a :class:`ReadPlanner` (normally the Flowserver, §3.3) to
pick replica(s) and path(s), then asks the chosen dataserver(s) to stream
the data.  File metadata is cached client-side: append-only semantics make
the chunk map safe to cache, and each read reply carries the file's current
size so appended tails are discovered without another nameserver round-trip.

Every operation opens one :class:`~repro.fs.retry.RetryBudget` and runs
its phases (nameserver call, read plan, byte-range transfer, push/commit)
through it: a phase here is an attempt body plus what it counts as
transient.  The default policy is the paper's immediate failover.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from contextlib import contextmanager
from random import Random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.fanout import static_chain_plan
from repro.fs.chunks import DEFAULT_CHUNK_BYTES, DEFAULT_REPLICATION, FileMetadata
from repro.fs.consistency import ConsistencyMode, replica_candidates_for_range
from repro.fs.errors import (
    FileNotFoundFsError,
    InvalidRequestError,
    LeaseExpiredError,
    NotPrimaryError,
    ReplicaUnavailableError,
    StaleEpochError,
)
from repro.fs.retry import IMMEDIATE_FAILOVER, RetryBudget, RetryPolicy
from repro.net.simulator import FlowAborted
from repro.rpc.errors import (
    HostDownError,
    RemoteInvocationError,
    RpcTimeout,
    ServiceNotFoundError,
)
from repro.sim import instrument
from repro.sim.engine import EventLoop
from repro.sim.process import Process

if TYPE_CHECKING:
    from repro.rpc.fabric import RpcFabric


@dataclass(frozen=True)
class PlannedTransfer:
    """One transfer a read planner decided on."""

    replica: str
    size_bytes: int
    flow_id: Optional[str] = None
    path: Optional[object] = None  # repro.net.routing.Path when pre-routed


class ReadPlanner:
    """Strategy choosing replica(s) for a read.

    ``plan`` is a generator (it may issue RPCs, e.g. to the Flowserver)
    returning a list of :class:`PlannedTransfer` that together cover
    ``size_bytes``.
    """

    def plan(
        self,
        client_host: str,
        metadata: FileMetadata,
        replicas: Sequence[str],
        size_bytes: int,
        job_id: Optional[str] = None,
    ) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover


class WriteFanoutPlanner:
    """Strategy choosing the replication fan-out shape for one append.

    ``plan`` is a generator returning a
    :class:`repro.core.fanout.FanoutPlan` — the push hop plus the relay
    topology (chain, tree, or the static-chain fallback) the primary
    should use for this append.
    """

    def plan(
        self,
        client_host: str,
        metadata: FileMetadata,
        size_bytes: int,
        job_id: Optional[str] = None,
    ) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a client read."""

    name: str
    offset: int
    length: int
    duration: float
    transfers: Sequence[PlannedTransfer]
    file_size: int
    data: Optional[bytes]


@dataclass
class _CacheEntry:
    metadata: FileMetadata
    cached_at: float


def _laid_out(
    transfers: Sequence[PlannedTransfer], offset: int
) -> List[Tuple[PlannedTransfer, int]]:
    """Pair each transfer with the file offset its bytes start at."""
    placed = []
    for transfer in transfers:
        placed.append((transfer, offset))
        offset += transfer.size_bytes
    return placed


#: The callee could not be reached, or did not answer in time.
_UNREACHABLE = (HostDownError, ServiceNotFoundError, RpcTimeout)
#: Every way a planner rpc can fail; the read path retries them all.
_PLANNER_FAILED = (HostDownError, RpcTimeout, RemoteInvocationError)


def _is_host_down(err: Exception) -> bool:
    """Transient for a nameserver phase: the nameserver was unreachable."""
    return isinstance(err, HostDownError)


def _joined(pieces: Sequence[Optional[bytes]]) -> Optional[bytes]:
    """The pieces' concatenation; ``None`` when there are none or a
    dataserver kept no payload for one of them."""
    if not pieces or any(piece is None for piece in pieces):
        return None
    return b"".join(piece for piece in pieces if piece is not None)


class MayflowerClient:
    """Filesystem client bound to one host.

    Parameters
    ----------
    host_id:
        The topology host this client runs on.
    fabric:
        RPC fabric shared with the servers.
    nameserver_endpoint:
        The endpoint serving the nameserver (and its lease service).
    planner:
        Read planning strategy (Flowserver-backed for Mayflower, or one of
        the baseline planners).
    consistency:
        Read consistency mode (§3.4).
    metadata_ttl:
        Seconds a cached file→dataservers mapping stays fresh; the paper
        ties this to replica-migration / failure timescales.
    retry:
        Retry policy; the default is the paper's immediate failover.
    """

    def __init__(
        self,
        host_id: str,
        loop: EventLoop,
        fabric: "RpcFabric",
        nameserver_endpoint: str,
        planner: ReadPlanner,
        consistency: ConsistencyMode = ConsistencyMode.SEQUENTIAL,
        metadata_ttl: float = 60.0,
        retry: RetryPolicy = IMMEDIATE_FAILOVER,
        retry_rng: Optional[Random] = None,
        fanout_planner: Optional[WriteFanoutPlanner] = None,
    ) -> None:
        self.host_id = host_id
        self._loop = loop
        self._fabric = fabric
        self._nameserver_endpoint = nameserver_endpoint
        self._planner = planner
        self.consistency = consistency
        self.metadata_ttl = metadata_ttl
        self._retry = retry
        self._retry_rng = retry_rng
        #: Fan-out shape strategy for appends; ``None`` makes the primary
        #: relay over the static metadata chain.
        self._fanout_planner = fanout_planner
        #: Append ids — the idempotence tokens the primary dedups retried
        #: appends with — are ``<prefix>:<seq>``; the fabric-unique caller
        #: id in the prefix keeps two clients on one host from colliding.
        self._append_prefix = f"ap:{host_id}.{fabric.new_caller_id()}"
        self._append_seq = itertools.count()
        self._cache: Dict[str, _CacheEntry] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.read_failovers = 0
        self.read_retries = 0
        self.metadata_retries = 0
        self.read_resumptions = 0
        self.bytes_resumed = 0
        self.append_retries = 0
        self.append_failovers = 0
        instrument.notify_component("client", self)

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------

    def create(
        self,
        name: str,
        replication: int = DEFAULT_REPLICATION,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> Generator:
        """Create a file; registers the replica set on every dataserver."""
        metadata_dict = yield from self._invoke_nameserver(
            self._budget("create", name),
            "create", name, replication, chunk_bytes, self.host_id,
        )
        metadata = FileMetadata.from_json_dict(metadata_dict)
        creates = [
            self._spawn_invoke(replica, "dataserver", "create_file", metadata_dict)
            for replica in metadata.replicas
        ]
        for proc in creates:
            yield proc
        self._remember(name, metadata)
        return metadata

    def delete(self, name: str) -> Generator:
        """Delete a file from the namespace and reclaim replicas."""
        metadata_dict = yield from self._invoke_nameserver(
            self._budget("delete", name), "delete", name
        )
        metadata = FileMetadata.from_json_dict(metadata_dict)
        self._cache.pop(name, None)
        deletes = [
            self._spawn_invoke(replica, "dataserver", "delete_file", metadata.file_id)
            for replica in metadata.replicas
        ]
        for proc in deletes:
            yield proc
        return metadata

    def move(self, src_name: str, dst_name: str) -> Generator:
        """Rename a file, replacing any existing destination (§3.3).

        The random-write workflow: write a fresh copy under a temporary
        name, then ``move`` it over the original — readers see either the
        whole old file or the whole new one, never a mix.
        """
        result = yield from self._invoke_nameserver(
            self._budget("move", src_name), "move", src_name, dst_name
        )
        moved = FileMetadata.from_json_dict(result["moved"])
        replaced = (
            FileMetadata.from_json_dict(result["replaced"])
            if result["replaced"]
            else None
        )
        cleanups = []
        if replaced is not None:
            cleanups.extend(
                self._spawn_invoke(r, "dataserver", "delete_file", replaced.file_id)
                for r in replaced.replicas
            )
        cleanups.extend(
            self._spawn_invoke(r, "dataserver", "rename_file", moved.file_id, dst_name)
            for r in moved.replicas
        )
        for proc in cleanups:
            yield proc
        self._cache.pop(src_name, None)
        self._remember(dst_name, moved)
        return moved

    def stat(self, name: str) -> Generator:
        """Fresh metadata straight from the nameserver (bypasses the cache)."""
        return (yield from self._lookup(self._budget("stat", name), name))

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------

    def append(
        self, name: str, size_bytes: int, data: Optional[bytes] = None,
        job_id: Optional[str] = None,
    ) -> Generator:
        """Append to a file through its primary replica; returns new size.

        Every append carries a client-unique ``append_id`` the primary
        dedups against, so retries after an ``RpcTimeout`` (which may
        have committed before the ack was lost) can never double-commit.
        The append runs the two-phase push/commit protocol over the
        planned fan-out topology, with the same retry/failover
        discipline reads have: transient failures (host down, timeout,
        fenced or demoted primary) refresh the metadata and retry after
        backoff.  Each attempt re-plans — a retry after failover pushes
        to (and commits at) whichever replica the refreshed metadata
        names as primary, over a fan-out shape priced against the
        network state at retry time.  Push and commit move the append's
        bytes through the data plane, so neither carries the policy's
        ``rpc_timeout``.
        """
        if size_bytes <= 0:
            raise InvalidRequestError(f"append size must be positive: {size_bytes}")
        append_id = f"{self._append_prefix}:{next(self._append_seq)}"
        budget = self._budget("append", name)

        def refresh() -> Generator:
            nonlocal metadata
            previous_primary = metadata.primary
            metadata = yield from self._lookup(budget, name)
            if metadata.primary != previous_primary:
                self.append_failovers += 1

        def attempt() -> Generator:
            plan = None
            if self._fanout_planner is not None:
                try:
                    plan = yield from self._fanout_planner.plan(
                        self.host_id, metadata, size_bytes, job_id=job_id
                    )
                except Exception as planner_err:
                    if not self._append_error_is_transient(planner_err):
                        raise
            if plan is None:
                plan = static_chain_plan(
                    self.host_id, metadata.primary, metadata.replicas[1:]
                )
            yield from self._fabric.invoke(
                self.host_id, plan.primary, "dataserver", "push_data",
                metadata.file_id, append_id, size_bytes, self.host_id, data,
                plan.push_path, job_id,
            )
            new_size = yield from self._fabric.invoke(
                self.host_id, plan.primary, "dataserver", "commit_append",
                metadata.file_id, append_id, self.host_id, plan.children, job_id,
            )
            self._remember(name, metadata.with_size(new_size))
            return new_size

        with self._root_span(
            "append", file=name, append=append_id, bytes=size_bytes
        ) as closing:
            metadata = yield from self._metadata(budget, name)
            new_size = yield from budget.run(
                attempt,
                self._append_error_is_transient,
                lambda err: ReplicaUnavailableError(
                    f"append to {name!r} failed after "
                    f"{budget.policy.max_attempts} attempt(s): {err}"
                ),
                refresh,
            )
            closing.update(outcome="committed", new_size=new_size)
        return new_size

    @staticmethod
    def _append_error_is_transient(err: Exception) -> bool:
        """Whether an append failure can be cured by refresh-and-retry.

        Host/timeout failures obviously retry.  Remote errors retry
        unless the *root* remote exception is a logic error
        (``InvalidRequestError``/``FileNotFoundFsError``) — fencing
        signals (``NotPrimaryError``, ``LeaseExpiredError``,
        ``StaleEpochError``) mean primaryship moved, which fresh
        metadata resolves, and relay-chain failures wrap the transient
        infrastructure error of whichever hop died.
        """
        if isinstance(err, (HostDownError, RpcTimeout)):
            return True
        if not isinstance(err, RemoteInvocationError):
            return False
        root: Optional[BaseException] = err
        while isinstance(root, RemoteInvocationError):
            root = root.remote_error
        if root is None:
            # The remote error type did not survive the wrap; assume
            # infrastructure trouble and let the attempt budget bound us.
            return True
        if isinstance(root, (NotPrimaryError, LeaseExpiredError, StaleEpochError)):
            return True
        return not isinstance(root, (InvalidRequestError, FileNotFoundFsError))

    def read(
        self,
        name: str,
        offset: int = 0,
        length: Optional[int] = None,
        job_id: Optional[str] = None,
    ) -> Generator:
        """Read ``length`` bytes at ``offset`` (defaults to the whole file).

        Consults the planner per consistency sub-range, fans the transfers
        out in parallel, and completes when the slowest transfer finishes
        (the job completion time the paper measures).
        """
        started = self._loop.now
        budget = self._budget("read", name)
        with self._root_span("read", file=name) as closing:
            metadata = yield from self._metadata(budget, name)
            if length is None:
                length = metadata.size_bytes - offset
            if length <= 0 or offset < 0 or offset + length > metadata.size_bytes:
                raise InvalidRequestError(
                    f"invalid read range {offset}+{length} of {name!r} "
                    f"(size {metadata.size_bytes})"
                )

            subranges = replica_candidates_for_range(
                metadata, offset, length, self.consistency
            )
            all_transfers: List[PlannedTransfer] = []
            readers: List[Process] = []
            for sub_offset, sub_length, replicas in subranges:
                # Survives transient planner/Flowserver outages.
                transfers = yield from budget.run(
                    lambda: self._planner.plan(
                        self.host_id, metadata, replicas, sub_length, job_id=job_id
                    ),
                    lambda err: isinstance(err, _PLANNER_FAILED),
                    lambda err: HostDownError(f"read planner unreachable: {err}"),
                )
                covered = sum(t.size_bytes for t in transfers)
                if covered != sub_length:
                    raise InvalidRequestError(
                        f"planner covered {covered} of {sub_length} bytes"
                    )
                all_transfers.extend(transfers)
                for transfer, cursor in _laid_out(transfers, sub_offset):
                    readers.append(
                        Process(
                            self._loop,
                            self._read_range(budget, metadata, transfer, cursor, job_id),
                            name=f"read:{metadata.name}:{len(readers)}",
                        )
                    )

            chunks: List[Optional[bytes]] = []
            reply_sizes: List[int] = []
            for proc in readers:
                chunk, sizes = yield proc
                chunks.append(chunk)
                reply_sizes.extend(sizes)
            closing.update(outcome="completed", length=length, transfers=len(readers))

        file_size = max(reply_sizes) if reply_sizes else metadata.size_bytes
        if file_size != metadata.size_bytes:
            # A concurrent append grew the file; refresh the cached size.
            self._remember(name, metadata.with_size(file_size))
        return ReadResult(
            name=name,
            offset=offset,
            length=length,
            duration=self._loop.now - started,
            transfers=tuple(all_transfers),
            file_size=file_size,
            data=_joined(chunks),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _budget(self, op: str, name: str) -> RetryBudget:
        """Open the retry budget of one logical operation on ``name``."""
        return RetryBudget(
            self._retry, self._loop, self._retry_rng, op, name, self._note_retry
        )

    def _note_retry(self, op: str, name: str, error: Exception) -> None:
        """Book one retry under the operation that owns the budget."""
        if op == "read":
            self.read_retries += 1
        elif op == "append":
            self.append_retries += 1
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.instant(self._loop.now, "client.append.retry", "append",
                            host=self.host_id, file=name,
                            error=type(error).__name__)
        else:
            self.metadata_retries += 1

    @contextmanager
    def _root_span(self, op: str, **args: object) -> Iterator[Dict[str, object]]:
        """Root span (``client.<op>``) of one operation tree.

        Every rpc the operation makes, and whatever those spawn, hangs
        off the context installed for the block's dynamic extent.  The
        block fills the yielded dict with the arguments of the span's
        end event; a raising block ends it with ``outcome="error"``.
        Safe around ``yield from`` as ``Dataserver._stage_span`` is.
        """
        closing: Dict[str, object] = {}
        tel = instrument.TELEMETRY
        if tel is None:
            yield closing
            return
        span, track = f"client.{op}", f"{op}s"
        ctx = tel.start_span(
            self._loop.now, span, op, track=track, span_id=tel.next_id(op),
            host=self.host_id, **args,
        )
        previous = instrument.set_context(ctx)
        try:
            yield closing
        except BaseException as err:
            closing = {"outcome": "error", "error": type(err).__name__}
            raise
        finally:
            instrument.set_context(previous)
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.finish_span(self._loop.now, ctx, span, op, track=track, **closing)

    def _invoke_nameserver(
        self, budget: RetryBudget, method: str, name: str, *args: Any
    ) -> Generator:
        """Call the nameserver about ``name``.

        An unreachable nameserver (host down, service gone, or a deadline
        expiry when the retry policy sets one) is what the budget
        retries.  Any other remote error is the nameserver's answer and
        propagates.
        """
        endpoint = self._nameserver_endpoint
        rpc_timeout = self._retry.rpc_timeout

        def attempt() -> Generator:
            try:
                return (
                    yield from self._fabric.invoke(
                        self.host_id, endpoint, "nameserver", method, name, *args,
                        rpc_timeout=rpc_timeout,
                    )
                )
            except _UNREACHABLE as err:
                raise HostDownError(
                    f"nameserver at {endpoint!r} unreachable for "
                    f"{method!r}: {err}"
                ) from err

        return (yield from budget.run(attempt, _is_host_down))

    def _metadata(self, budget: RetryBudget, name: str) -> Generator:
        entry = self._cache.get(name)
        if entry is not None and self._loop.now - entry.cached_at <= self.metadata_ttl:
            self.cache_hits += 1
            return entry.metadata
        self.cache_misses += 1
        return (yield from self._lookup(budget, name))

    def _lookup(self, budget: RetryBudget, name: str) -> Generator:
        """Fetch and cache ``name``'s metadata for ``budget``'s operation."""
        metadata_dict = yield from self._invoke_nameserver(budget, "lookup", name)
        metadata = FileMetadata.from_json_dict(metadata_dict)
        self._remember(name, metadata)
        return metadata

    def _remember(self, name: str, metadata: FileMetadata) -> None:
        self._cache[name] = _CacheEntry(metadata=metadata, cached_at=self._loop.now)

    def _spawn_invoke(self, endpoint: str, service: str, method: str, *args: Any) -> Process:
        call = self._fabric.invoke(self.host_id, endpoint, service, method, *args)
        return Process(self._loop, call, (service, ".", method, "@", endpoint))

    def _read_range(
        self,
        budget: RetryBudget,
        metadata: FileMetadata,
        transfer: PlannedTransfer,
        file_offset: int,
        job_id: Optional[str],
    ) -> Generator:
        """Fetch one planned transfer's byte range; returns ``(data, the
        file sizes the replies reported)``.

        A mid-transfer abort keeps the delivered prefix, and only the
        remainder is retried — re-planned (via the Flowserver, for
        Mayflower) over the replicas not known to be down.
        """
        # Still to fetch, in order; the head is the piece in flight, and a
        # failed attempt leaves what it did not get there for refresh().
        queue = [(transfer, file_offset)]
        parts: Dict[int, Optional[bytes]] = {}
        reply_sizes: List[int] = []
        down_replicas: List[str] = []

        def attempt() -> Generator:
            while queue:
                piece, offset = queue[0]
                try:
                    reply = yield from self._fabric.invoke(
                        self.host_id, piece.replica, "dataserver", "serve_read",
                        metadata.file_id, offset, piece.size_bytes, self.host_id,
                        piece.flow_id, piece.path, job_id,
                    )
                except (HostDownError, RpcTimeout):
                    if piece.replica not in down_replicas:
                        down_replicas.append(piece.replica)
                    raise
                except RemoteInvocationError as err:
                    aborted = err.remote_error
                    if not isinstance(aborted, FlowAborted):
                        raise
                    delivered = min(int(aborted.bytes_delivered), piece.size_bytes)
                    if delivered > 0:
                        parts[offset] = (
                            aborted.data[:delivered]
                            if aborted.data is not None
                            else None
                        )
                        self.read_resumptions += 1
                        self.bytes_resumed += delivered
                        tel = instrument.TELEMETRY
                        if tel is not None:
                            tel.instant(
                                self._loop.now, "client.read.resume",
                                "read", file=metadata.name,
                                replica=piece.replica, bytes=delivered,
                            )
                    if delivered < piece.size_bytes:
                        rest = PlannedTransfer(piece.replica, piece.size_bytes - delivered)
                        queue[0] = (rest, offset + delivered)
                        raise
                else:
                    parts[offset] = reply.data
                    reply_sizes.append(reply.file_size)
                queue.pop(0)

        def refresh() -> Generator:
            failed, offset = queue.pop(0)
            candidates = [r for r in metadata.replicas if r not in down_replicas]
            if not candidates:
                # Every replica has failed at least once, but a timed
                # outage may since have healed; forgive the blacklist
                # and re-probe (the attempt budget still bounds us).
                down_replicas.clear()
                candidates = list(metadata.replicas)
            if failed.replica in down_replicas:
                self.read_failovers += 1
                tel = instrument.TELEMETRY
                if tel is not None:
                    tel.instant(
                        self._loop.now, "client.read.failover",
                        "read", file=metadata.name, replica=failed.replica,
                    )
            replanned = yield from self._replan_range(
                metadata, candidates, failed.replica, failed.size_bytes, job_id
            )
            queue[:0] = _laid_out(replanned, offset)

        yield from budget.run(
            attempt,
            self._read_error_is_transient,
            lambda err: ReplicaUnavailableError(
                f"read of {metadata.name!r} range {file_offset}+"
                f"{transfer.size_bytes} failed after "
                f"{budget.policy.max_attempts} attempt(s), replicas down "
                f"{down_replicas}: {err}"
            ),
            refresh,
        )
        return _joined([parts[k] for k in sorted(parts)]), reply_sizes

    @staticmethod
    def _read_error_is_transient(err: Exception) -> bool:
        """Whether a failed ``serve_read`` is worth another attempt: an
        unreachable or silent replica and a transfer aborted mid-flight
        are; any other remote error (bad range, missing file) is the
        dataserver's answer."""
        if isinstance(err, RemoteInvocationError):
            return isinstance(err.remote_error, FlowAborted)
        return isinstance(err, (HostDownError, RpcTimeout))

    def _replan_range(
        self,
        metadata: FileMetadata,
        candidates: List[str],
        failed_replica: str,
        length: int,
        job_id: Optional[str],
    ) -> Generator:
        """Plan the retry of ``length`` bytes after a failure.

        Asks the planner (the Flowserver, for Mayflower) to place the
        remaining bytes across the surviving replicas; if the planner is
        itself unreachable or returns a bad cover, falls back to a direct
        ECMP-routed read from the first healthy replica.
        """
        try:
            planned = yield from self._planner.plan(
                self.host_id, metadata, candidates, length, job_id=job_id
            )
            if planned and sum(t.size_bytes for t in planned) == length:
                return planned
        except _PLANNER_FAILED:
            pass
        fallback = (
            candidates[0] if failed_replica not in candidates else failed_replica
        )
        return [PlannedTransfer(fallback, length)]
