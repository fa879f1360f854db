"""The Mayflower client library (§5).

Provides an HDFS-like interface — create, read, append (write), delete —
implemented as cooperative processes over the RPC fabric.  During reads the
client consults a :class:`ReadPlanner` (normally the Flowserver, §3.3) to
pick replica(s) and path(s), then asks the chosen dataserver(s) to stream
the data.  File metadata is cached client-side: append-only semantics make
the chunk map safe to cache, and each read reply carries the file's current
size so appended tails are discovered without another nameserver round-trip.
"""

from __future__ import annotations

import itertools
from random import Random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.fs.chunks import DEFAULT_CHUNK_BYTES, DEFAULT_REPLICATION, FileMetadata
from repro.fs.consistency import ConsistencyMode, replica_candidates_for_range
from repro.fs.errors import InvalidRequestError, WrongPartitionError
from repro.fs.retry import RetryPolicy
from repro.fs.shardmap import NAME_ROUTED_METHODS, ShardMap, ShardRouter
from repro.sim import instrument
from repro.sim.engine import EventLoop
from repro.sim.process import Delay, Process

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


class MayflowerClient:
    """Filesystem client bound to one host.

    Parameters
    ----------
    host_id:
        The topology host this client runs on.
    fabric:
        RPC fabric shared with the servers.
    nameserver_endpoint:
        Where the nameserver service lives.
    planner:
        Read planning strategy (Flowserver-backed for Mayflower, or one of
        the baseline planners).
    consistency:
        Read consistency mode (§3.4).
    metadata_ttl:
        Seconds a cached file→dataservers mapping stays fresh; the paper
        ties this to replica-migration / failure timescales.
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
        max_read_attempts: int = 3,
        retry: Optional[RetryPolicy] = None,
        retry_rng: Optional[Random] = None,
        fanout_planner: Optional[WriteFanoutPlanner] = None,
        shard_router: Optional[ShardRouter] = None,
    ) -> None:
        self.host_id = host_id
        self._loop = loop
        self._fabric = fabric
        # One endpoint for the paper's centralized nameserver, or several
        # for a replicated deployment (§3.3.1); calls fail over in order.
        if isinstance(nameserver_endpoint, str):
            self._ns_endpoints = [nameserver_endpoint]
        else:
            self._ns_endpoints = list(nameserver_endpoint)
        if not self._ns_endpoints:
            raise ValueError("at least one nameserver endpoint is required")
        self._planner = planner
        self.consistency = consistency
        self.metadata_ttl = metadata_ttl
        self.max_read_attempts = max(1, max_read_attempts)
        #: Optional backoff/deadline policy; ``None`` keeps the historical
        #: immediate-failover behaviour (and the historical event timeline,
        #: bit-for-bit, since no delays or RNG draws are ever introduced).
        self._retry = retry
        self._retry_rng = retry_rng
        #: Fan-out shape strategy for appends; ``None`` makes the primary
        #: relay over the static metadata chain.
        self._fanout_planner = fanout_planner
        #: Cached shard map for a partitioned nameserver; ``None`` (the
        #: monolithic default) routes every call over ``_ns_endpoints``
        #: exactly as before, with zero extra RPCs or draws.
        self._shard_router = shard_router
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
        self.read_resumptions = 0
        self.bytes_resumed = 0
        self.append_retries = 0
        self.append_failovers = 0

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
            "create", name, replication, chunk_bytes, self.host_id
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
        metadata_dict = yield from self._invoke_nameserver("delete", name)
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
        result = yield from self._invoke_nameserver("move", src_name, dst_name)
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
        metadata_dict = yield from self._invoke_nameserver("lookup", name)
        metadata = FileMetadata.from_json_dict(metadata_dict)
        self._remember(name, metadata)
        return metadata

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
        backoff.
        """
        if size_bytes <= 0:
            raise InvalidRequestError(f"append size must be positive: {size_bytes}")
        append_id = f"{self._append_prefix}:{next(self._append_seq)}"
        tel = instrument.TELEMETRY
        append_ctx: Optional[instrument.TraceContext] = None
        previous_ctx: Optional[instrument.TraceContext] = None
        if tel is not None:
            # Root span of the operation tree: every rpc the append makes
            # (plan, push, commit, and the relays those spawn) hangs off
            # the context installed here for the append's dynamic extent.
            append_ctx = tel.start_span(
                self._loop.now, "client.append", "append", track="appends",
                span_id=tel.next_id("append"), host=self.host_id, file=name,
                append=append_id, bytes=size_bytes,
            )
            previous_ctx = instrument.set_context(append_ctx)
        try:
            new_size = yield from self._push_and_commit(
                name, size_bytes, data, append_id, job_id
            )
        except BaseException as err:
            tel = instrument.TELEMETRY
            if tel is not None and append_ctx is not None:
                tel.finish_span(self._loop.now, append_ctx, "client.append",
                                "append", track="appends", outcome="error",
                                error=type(err).__name__)
            raise
        finally:
            if append_ctx is not None:
                instrument.set_context(previous_ctx)
        tel = instrument.TELEMETRY
        if tel is not None and append_ctx is not None:
            tel.finish_span(self._loop.now, append_ctx, "client.append",
                            "append", track="appends", outcome="committed",
                            new_size=new_size)
        return new_size

    def _push_and_commit(
        self,
        name: str,
        size_bytes: int,
        data: Optional[bytes],
        append_id: str,
        job_id: Optional[str],
    ) -> Generator:
        """Two-phase append: plan fan-out, push to primary, commit.

        Each attempt re-plans — a retry after failover pushes to (and
        commits at) whichever replica the refreshed metadata names as
        primary, over a fan-out shape priced against the network state
        at retry time.
        """
        from repro.core.fanout import static_chain_plan

        policy = self._retry
        rpc_timeout = policy.rpc_timeout if policy is not None else None
        attempts = policy.max_attempts if policy is not None else 1
        deadline = (
            self._loop.now + policy.operation_deadline
            if policy is not None and policy.operation_deadline is not None
            else None
        )
        last_error: Optional[Exception] = None
        metadata = yield from self._metadata(name)
        for attempt_index in range(attempts):
            if attempt_index > 0:
                yield from self._append_backoff(attempt_index, name, deadline, last_error)
                previous_primary = metadata.primary
                metadata = yield from self.stat(name)
                self._note_append_failover(previous_primary, metadata.primary)
            try:
                plan = None
                if self._fanout_planner is not None:
                    try:
                        plan = yield from self._fanout_planner.plan(
                            self.host_id, metadata, size_bytes, job_id=job_id
                        )
                    except Exception as planner_err:
                        if not self._append_error_is_transient(planner_err):
                            raise
                        plan = None
                if plan is None:
                    plan = static_chain_plan(
                        self.host_id, metadata.primary, metadata.replicas[1:]
                    )
                yield from self._fabric.invoke(
                    self.host_id,
                    plan.primary,
                    "dataserver",
                    "push_data",
                    metadata.file_id,
                    append_id,
                    size_bytes,
                    self.host_id,
                    data,
                    plan.push_path,
                    job_id,
                    rpc_timeout=rpc_timeout,
                )
                new_size = yield from self._fabric.invoke(
                    self.host_id,
                    plan.primary,
                    "dataserver",
                    "commit_append",
                    metadata.file_id,
                    append_id,
                    self.host_id,
                    plan.children,
                    job_id,
                    rpc_timeout=rpc_timeout,
                )
                self._remember(name, metadata.with_size(new_size))
                return new_size
            except Exception as err:
                if policy is None or not self._append_error_is_transient(err):
                    raise
                last_error = err
        from repro.fs.errors import ReplicaUnavailableError

        raise ReplicaUnavailableError(
            f"append to {name!r} failed after {attempts} attempt(s): {last_error}"
        )

    def _note_append_failover(self, previous_primary: str, primary: str) -> None:
        """Count a retry whose refreshed metadata names a new primary."""
        if primary != previous_primary:
            self.append_failovers += 1
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.count("client_append_failovers_total")

    def _append_backoff(
        self,
        attempt_index: int,
        name: str,
        deadline: Optional[float],
        last_error: Optional[Exception],
    ) -> Generator:
        """Count, trace and sleep one append retry; enforce the deadline."""
        policy = self._retry
        if deadline is not None and self._loop.now > deadline:
            from repro.fs.errors import OperationTimeoutError

            raise OperationTimeoutError(
                f"append to {name!r} exceeded its "
                f"{policy.operation_deadline:.6g}s deadline: {last_error}"
            )
        self.append_retries += 1
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(self._loop.now, "client.append.retry", "append",
                        host=self.host_id, file=name,
                        error=type(last_error).__name__ if last_error else None)
            tel.count("client_append_retries_total")
        delay = policy.backoff(attempt_index - 1, self._retry_rng)
        if delay > 0:
            yield Delay(delay)

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
        from repro.fs.errors import (
            FileNotFoundFsError,
            LeaseExpiredError,
            NotPrimaryError,
            StaleEpochError,
        )
        from repro.rpc.errors import (
            HostDownError,
            RemoteInvocationError,
            RpcTimeout,
        )

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
        tel = instrument.TELEMETRY
        read_id: Optional[str] = None
        read_ctx: Optional[instrument.TraceContext] = None
        previous_ctx: Optional[instrument.TraceContext] = None
        if tel is not None:
            read_id = tel.next_id("read")
            # Root span of the read's operation tree; the context installed
            # here parents the planner and serve_read rpcs (and, through
            # them, everything the dataservers do for this read).
            read_ctx = tel.start_span(started, "client.read", "read",
                                      track="reads", span_id=read_id,
                                      host=self.host_id, file=name)
            previous_ctx = instrument.set_context(read_ctx)
        try:
            metadata = yield from self._metadata(name)
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
            chunks: Dict[int, Optional[bytes]] = {}
            reply_sizes: List[int] = []

            slot = 0
            for sub_offset, sub_length, replicas in subranges:
                transfers = yield from self._plan_with_retry(
                    metadata, replicas, sub_length, job_id
                )
                covered = sum(t.size_bytes for t in transfers)
                if covered != sub_length:
                    raise InvalidRequestError(
                        f"planner covered {covered} of {sub_length} bytes"
                    )
                cursor = sub_offset
                for transfer in transfers:
                    all_transfers.append(transfer)
                    readers.append(
                        self._spawn_read(
                            metadata, transfer, cursor, slot, chunks, reply_sizes, job_id
                        )
                    )
                    cursor += transfer.size_bytes
                    slot += 1

            for proc in readers:
                yield proc
        except BaseException as err:
            tel = instrument.TELEMETRY
            if tel is not None and read_id is not None:
                tel.end(self._loop.now, "client.read", "read", read_id,
                        track="reads", outcome="error",
                        error=type(err).__name__)
            raise
        finally:
            if read_ctx is not None:
                instrument.set_context(previous_ctx)

        data = None
        if chunks and all(v is not None for v in chunks.values()):
            data = b"".join(chunks[i] for i in sorted(chunks))
        file_size = max(reply_sizes) if reply_sizes else metadata.size_bytes
        if file_size != metadata.size_bytes:
            # A concurrent append grew the file; refresh the cached size.
            self._remember(name, metadata.with_size(file_size))
        tel = instrument.TELEMETRY
        if tel is not None and read_id is not None:
            tel.end(self._loop.now, "client.read", "read", read_id,
                    track="reads", outcome="completed", length=length,
                    transfers=len(all_transfers))
        return ReadResult(
            name=name,
            offset=offset,
            length=length,
            duration=self._loop.now - started,
            transfers=tuple(all_transfers),
            file_size=file_size,
            data=data,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _invoke_nameserver(self, method: str, *args: Any) -> Generator:
        """Call the nameserver, failing over across replica endpoints.

        Whole-host failures (HostDown), crashed nameserver processes
        (ServiceNotFound) and deadline expiries (RpcTimeout, when the
        retry policy sets one) all trigger the failover.  With a retry
        policy, exhausted endpoint sweeps repeat after exponential
        backoff until attempts or the operation deadline run out.

        With a shard router installed, name-routed calls sweep only the
        owning partition's replica endpoints; a ``WrongPartitionError``
        advertising a newer shard-map epoch triggers a map refetch from
        the rejecting replica and one re-routed sweep.
        """
        from repro.rpc.errors import (
            HostDownError,
            RemoteInvocationError,
            RpcTimeout,
            ServiceNotFoundError,
        )

        policy = self._retry
        rpc_timeout = policy.rpc_timeout if policy is not None else None
        rounds = policy.max_attempts if policy is not None else 1
        deadline = (
            self._loop.now + policy.operation_deadline
            if policy is not None and policy.operation_deadline is not None
            else None
        )
        last_error: Optional[Exception] = None
        for round_index in range(rounds):
            if round_index > 0:
                self.read_retries += 1
                tel = instrument.TELEMETRY
                if tel is not None:
                    tel.count("client_read_retries_total")
                delay = policy.backoff(round_index - 1, self._retry_rng)
                if delay > 0:
                    yield Delay(delay)
            refreshes_left = 1 if self._shard_router is not None else 0
            sweep = True
            while sweep:
                sweep = False
                for endpoint in self._ns_endpoints_for(method, args):
                    if deadline is not None and self._loop.now > deadline:
                        from repro.fs.errors import OperationTimeoutError

                        raise OperationTimeoutError(
                            f"nameserver {method!r} exceeded its "
                            f"{policy.operation_deadline:.6g}s deadline: "
                            f"{last_error}"
                        )
                    try:
                        result = yield from self._fabric.invoke(
                            self.host_id,
                            endpoint,
                            "nameserver",
                            method,
                            *args,
                            rpc_timeout=rpc_timeout,
                        )
                        return result
                    except (HostDownError, ServiceNotFoundError, RpcTimeout) as err:
                        last_error = err
                        continue
                    except RemoteInvocationError as err:
                        remote = getattr(err, "remote_error", None)
                        router = self._shard_router
                        if (
                            refreshes_left > 0
                            and router is not None
                            and isinstance(remote, WrongPartitionError)
                            and remote.epoch > router.epoch
                        ):
                            # Cached map went stale (epoch bump): refetch
                            # from the replica that rejected us — it is
                            # demonstrably reachable — and re-route once.
                            refreshes_left -= 1
                            yield from self._refresh_shard_map(endpoint)
                            sweep = True
                            break
                        raise
        raise HostDownError(
            f"no nameserver replica reachable for {method!r}: {last_error}"
        )

    def _ns_endpoints_for(self, method: str, args: Sequence[Any]) -> List[str]:
        """Endpoints to sweep for one nameserver call.

        Name-routed methods consult the shard router (when installed);
        everything else — and the monolithic default — uses the full
        configured endpoint list.
        """
        if (
            self._shard_router is not None
            and method in NAME_ROUTED_METHODS
            and args
        ):
            return self._shard_router.endpoints_for(str(args[0]))
        return self._ns_endpoints

    def _refresh_shard_map(self, endpoint: str) -> Generator:
        """Refetch the shard map from ``endpoint`` and adopt it if newer."""
        assert self._shard_router is not None
        data = yield from self._fabric.invoke(
            self.host_id, endpoint, "nameserver", "get_shard_map"
        )
        adopted = self._shard_router.install(ShardMap.from_json_dict(data))
        if adopted:
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.count("client_shard_map_refreshes_total")

    def _plan_with_retry(
        self,
        metadata: FileMetadata,
        replicas: Sequence[str],
        size_bytes: int,
        job_id: Optional[str],
    ) -> Generator:
        """Run the read planner; with a retry policy, survive transient
        planner/Flowserver outages by backing off and retrying."""
        from repro.rpc.errors import (
            HostDownError,
            RemoteInvocationError,
            RpcTimeout,
        )

        policy = self._retry
        attempts = policy.max_attempts if policy is not None else 1
        last_error: Optional[Exception] = None
        for attempt_index in range(attempts):
            if attempt_index > 0:
                self.read_retries += 1
                tel = instrument.TELEMETRY
                if tel is not None:
                    tel.count("client_read_retries_total")
                delay = policy.backoff(attempt_index - 1, self._retry_rng)
                if delay > 0:
                    yield Delay(delay)
            try:
                transfers = yield from self._planner.plan(
                    self.host_id, metadata, replicas, size_bytes, job_id=job_id
                )
                return transfers
            except (HostDownError, RpcTimeout, RemoteInvocationError) as err:
                if policy is None:
                    raise
                last_error = err
        raise HostDownError(f"read planner unreachable: {last_error}")

    def _metadata(self, name: str) -> Generator:
        entry = self._cache.get(name)
        if entry is not None and self._loop.now - entry.cached_at <= self.metadata_ttl:
            self.cache_hits += 1
            return entry.metadata
        self.cache_misses += 1
        metadata_dict = yield from self._invoke_nameserver("lookup", name)
        metadata = FileMetadata.from_json_dict(metadata_dict)
        self._remember(name, metadata)
        return metadata

    def _remember(self, name: str, metadata: FileMetadata) -> None:
        self._cache[name] = _CacheEntry(metadata=metadata, cached_at=self._loop.now)

    def _spawn_invoke(self, endpoint: str, service: str, method: str, *args: Any) -> Process:
        def body() -> Generator:
            return (
                yield from self._fabric.invoke(
                    self.host_id, endpoint, service, method, *args
                )
            )

        return Process(self._loop, body(), name=f"{service}.{method}@{endpoint}")

    def _spawn_read(
        self,
        metadata: FileMetadata,
        transfer: PlannedTransfer,
        file_offset: int,
        slot: int,
        chunks: Dict[int, Optional[bytes]],
        reply_sizes: List[int],
        job_id: Optional[str],
    ) -> Process:
        def attempt(
            replica: str,
            flow_id: str,
            path: Sequence[str],
            abs_offset: int,
            nbytes: int,
        ) -> Generator:
            reply = yield from self._fabric.invoke(
                self.host_id,
                replica,
                "dataserver",
                "serve_read",
                metadata.file_id,
                abs_offset,
                nbytes,
                self.host_id,
                flow_id,
                path,
                job_id,
            )
            return reply

        def body() -> Generator:
            from repro.fs.errors import OperationTimeoutError, ReplicaUnavailableError
            from repro.net.simulator import FlowAborted
            from repro.rpc.errors import (
                HostDownError,
                RemoteInvocationError,
                RpcTimeout,
            )

            policy = self._retry
            started = self._loop.now
            deadline = (
                started + policy.operation_deadline
                if policy is not None and policy.operation_deadline is not None
                else None
            )
            max_attempts = (
                policy.max_attempts if policy is not None else self.max_read_attempts
            )

            # Byte ranges still to fetch: (replica, flow_id, path, abs
            # offset, length).  A mid-transfer abort keeps the delivered
            # prefix and pushes back only the remainder — possibly
            # re-planned onto a different replica via the Flowserver.
            queue: List[Tuple[str, Optional[str], Optional[object], int, int]] = [
                (
                    transfer.replica,
                    transfer.flow_id,
                    transfer.path,
                    file_offset,
                    transfer.size_bytes,
                )
            ]
            parts: Dict[int, Optional[bytes]] = {}
            down_replicas: List[str] = []
            failures = 0
            last_error: Optional[Exception] = None
            last_reply = None

            while queue:
                replica, flow_id, path, abs_off, nbytes = queue.pop(0)
                if deadline is not None and self._loop.now > deadline:
                    raise OperationTimeoutError(
                        f"read of {metadata.name!r} range {file_offset}+"
                        f"{transfer.size_bytes} exceeded its "
                        f"{policy.operation_deadline:.6g}s deadline: {last_error}"
                    )
                try:
                    reply = yield from attempt(replica, flow_id, path, abs_off, nbytes)
                except (HostDownError, RpcTimeout, RemoteInvocationError) as err:
                    aborted: Optional[FlowAborted] = None
                    if isinstance(err, RemoteInvocationError):
                        if isinstance(err.remote_error, FlowAborted):
                            aborted = err.remote_error
                        else:
                            # Remote logic errors (bad range, missing file)
                            # are not transient — retrying cannot help.
                            raise
                    failures += 1
                    last_error = err
                    if isinstance(err, (HostDownError, RpcTimeout)):
                        if replica not in down_replicas:
                            down_replicas.append(replica)

                    remaining_off, remaining_len = abs_off, nbytes
                    if aborted is not None:
                        delivered = min(int(aborted.bytes_delivered), nbytes)
                        if delivered > 0:
                            parts[abs_off] = (
                                aborted.data[:delivered]
                                if aborted.data is not None
                                else None
                            )
                            remaining_off += delivered
                            remaining_len -= delivered
                            self.read_resumptions += 1
                            self.bytes_resumed += delivered
                            tel = instrument.TELEMETRY
                            if tel is not None:
                                tel.instant(
                                    self._loop.now, "client.read.resume",
                                    "read", file=metadata.name,
                                    replica=replica, bytes=delivered,
                                )
                                tel.count("client_read_resumptions_total")
                                tel.metrics.counter(
                                    "client_bytes_resumed_total"
                                ).inc(float(delivered))

                    candidates = [
                        r for r in metadata.replicas if r not in down_replicas
                    ]
                    if remaining_len <= 0:
                        continue
                    if failures >= max_attempts or (
                        not candidates and policy is None
                    ):
                        raise ReplicaUnavailableError(
                            f"read of {metadata.name!r} range {file_offset}+"
                            f"{transfer.size_bytes} failed after {failures} "
                            f"attempt(s), replicas down {down_replicas}: "
                            f"{last_error}"
                        )
                    if not candidates:
                        # Every replica has failed at least once, but a
                        # timed outage may since have healed; forgive the
                        # blacklist and re-probe after backoff (the
                        # failure budget still bounds total attempts).
                        down_replicas.clear()
                        candidates = list(metadata.replicas)
                    tel = instrument.TELEMETRY
                    if replica in down_replicas:
                        self.read_failovers += 1
                        if tel is not None:
                            tel.instant(
                                self._loop.now, "client.read.failover",
                                "read", file=metadata.name, replica=replica,
                            )
                            tel.count("client_read_failovers_total")
                    self.read_retries += 1
                    if tel is not None:
                        tel.count("client_read_retries_total")
                    if policy is not None:
                        delay = policy.backoff(failures - 1, self._retry_rng)
                        if delay > 0:
                            yield Delay(delay)
                    requeue = yield from self._replan_range(
                        metadata, candidates, replica, remaining_off,
                        remaining_len, job_id,
                    )
                    queue[:0] = requeue
                    continue
                parts[abs_off] = reply.data
                reply_sizes.append(reply.file_size)
                last_reply = reply

            data = None
            if parts and all(v is not None for v in parts.values()):
                data = b"".join(parts[k] for k in sorted(parts))
            chunks[slot] = data
            return last_reply

        return Process(self._loop, body(), name=f"read:{metadata.name}:{slot}")

    def _replan_range(
        self,
        metadata: FileMetadata,
        candidates: List[str],
        failed_replica: str,
        offset: int,
        length: int,
        job_id: Optional[str],
    ) -> Generator:
        """Plan the retry of a byte range after a failure.

        Asks the planner (the Flowserver, for Mayflower) to place the
        remaining bytes across the surviving replicas; if the planner is
        itself unreachable or returns a bad cover, falls back to a direct
        ECMP-routed read from the first healthy replica.
        """
        from repro.rpc.errors import HostDownError, RemoteInvocationError, RpcTimeout

        transfers = None
        try:
            planned = yield from self._planner.plan(
                self.host_id, metadata, candidates, length, job_id=job_id
            )
            if planned and sum(t.size_bytes for t in planned) == length:
                transfers = planned
        except (HostDownError, RpcTimeout, RemoteInvocationError):
            transfers = None
        if transfers is None:
            fallback = (
                candidates[0] if failed_replica not in candidates else failed_replica
            )
            return [(fallback, None, None, offset, length)]
        requeue = []
        cursor = offset
        for planned_transfer in transfers:
            requeue.append(
                (
                    planned_transfer.replica,
                    planned_transfer.flow_id,
                    planned_transfer.path,
                    cursor,
                    planned_transfer.size_bytes,
                )
            )
            cursor += planned_transfer.size_bytes
        return requeue
