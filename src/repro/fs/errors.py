"""Filesystem error types."""

from __future__ import annotations


class FsError(Exception):
    """Base class for Mayflower filesystem errors."""


class FileNotFoundFsError(FsError):
    """The named file does not exist (or was deleted)."""


class FileAlreadyExistsError(FsError):
    """Creation of a file whose name is already taken."""


class ReplicaUnavailableError(FsError):
    """No reachable replica can serve the request."""


class InvalidRequestError(FsError):
    """Malformed client request (bad offsets, sizes, etc.)."""


class OperationTimeoutError(FsError):
    """A client operation exhausted its overall deadline.

    Raised by :class:`~repro.fs.retry.RetryBudget` when a
    :class:`~repro.fs.retry.RetryPolicy` with ``operation_deadline`` runs
    out of simulated-time budget across phases, attempts and backoff.
    """


class LeaseExpiredError(FsError):
    """A dataserver's primary lease lapsed (or was revoked) for a file.

    The write pipeline's fencing signal: a primary whose lease cannot be
    (re)validated must reject appends rather than commit on stale
    authority.  Clients treat this as transient — refresh metadata and
    retry at whichever replica now holds the lease.
    """


class NotPrimaryError(InvalidRequestError):
    """An append-path RPC reached a replica that is not the file's primary.

    Subclasses :class:`InvalidRequestError` for backward compatibility
    with callers that treated misdirected appends as malformed requests —
    but unlike other invalid requests it is *transient* to the retrying
    client, which refreshes metadata and resends to the new primary.
    """


class StaleEpochError(FsError):
    """An append carried an epoch older than the file's current lease epoch.

    Raised by the nameserver when a fenced-out primary reports a commit,
    and by secondaries when a stale primary relays one.  The append is
    NOT acknowledged; the stale replica's local bytes are repaired by
    truncation when the current primary next relays to it.
    """
