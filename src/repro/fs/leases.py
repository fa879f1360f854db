"""Primary leases with epochs: the write pipeline's fencing substrate.

The nameserver stays authoritative over *who may order appends* for each
file (the MetaFlow lesson: metadata authority must be centralized even
when the data path is co-designed with the network).  A
:class:`LeaseManager` co-located with the nameserver grants time-bounded
**primary leases** on the simulated clock; every grant carries an
**epoch** number that increases whenever primaryship can have moved —
expiry, revocation, or explicit promotion by the replica manager.

Fencing is two-sided:

* **dataserver-side** — a primary whose locally-held lease lapsed must
  re-acquire before committing; if the manager refuses (someone else
  holds the lease) the append is rejected with
  :class:`~repro.fs.errors.LeaseExpiredError` and never commits;
* **nameserver-side** — every committed append reports its epoch via
  ``record_append``; a mismatch against the manager's current epoch
  raises :class:`~repro.fs.errors.StaleEpochError`, so a primary that
  committed on stale authority can never make its bytes authoritative
  (and never acks the client).

Renewal rides the existing heartbeat path: the membership tracker calls
:meth:`LeaseManager.renew_for_host` on every heartbeat, extending the
manager-side expiry of all leases that host holds.  A dead primary stops
beating, its leases run out, and the next acquirer — normally the
survivor the replica manager promoted — gets a fresh epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.fs.errors import LeaseExpiredError, NotPrimaryError, StaleEpochError
from repro.sim import instrument
from repro.sim.engine import EventLoop

#: RPC service name under which the :class:`LeaseManager` is registered
#: (co-located with the nameserver endpoint).
LEASE_SERVICE = "leases"

#: Default lease term in simulated seconds.  Chosen to sit comfortably
#: above the default heartbeat interval (5 s) so a healthy primary never
#: loses its lease between beats, yet well below re-replication
#: timescales so failover is not gated on lease expiry.
DEFAULT_LEASE_DURATION = 30.0


@dataclass(frozen=True)
class LeaseGrant:
    """One granted (or renewed) primary lease, in wire-friendly form."""

    file_id: str
    holder: str
    epoch: int
    expires_at: float

    def valid_at(self, now: float) -> bool:
        return now < self.expires_at

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "file_id": self.file_id,
            "holder": self.holder,
            "epoch": self.epoch,
            "expires_at": self.expires_at,
        }

    @classmethod
    def from_json_dict(cls, obj: Dict[str, object]) -> "LeaseGrant":
        return cls(
            file_id=str(obj["file_id"]),
            holder=str(obj["holder"]),
            epoch=int(obj["epoch"]),  # type: ignore[call-overload]
            expires_at=float(obj["expires_at"]),  # type: ignore[arg-type]
        )


class LeaseManager:
    """Grants, renews, revokes and validates primary leases.

    Registered as the ``"leases"`` RPC service at the nameserver
    endpoint; also reachable in-process by the nameserver (epoch
    validation on ``record_append``) and the replica manager (promotion).
    All expiry decisions read the shared simulated clock, so lease
    timelines are deterministic per seed.
    """

    def __init__(
        self, loop: EventLoop, duration: float = DEFAULT_LEASE_DURATION
    ) -> None:
        if duration <= 0:
            raise ValueError(f"lease duration must be positive, got {duration}")
        self._loop = loop
        self.duration = duration
        self._leases: Dict[str, LeaseGrant] = {}
        self.grants = 0
        self.renewals = 0
        self.promotions = 0
        self.expirations = 0
        self.rejections = 0
        self.fencing_rejections = 0
        instrument.notify_component("leases", self)

    # ------------------------------------------------------------------
    # RPC surface (dataserver-facing)
    # ------------------------------------------------------------------

    def acquire(
        self, file_id: str, host: str, claim: bool = True
    ) -> Dict[str, object]:
        """Acquire (or refresh) the primary lease on ``file_id``.

        Grant rules, evaluated at the current simulated time:

        * no lease, or the existing lease expired → grant to ``host``
          with a **bumped epoch** (primaryship may have moved while no
          lease was live, so the epoch must not be reusable) — if
          ``claim``; a caller that may only renew (a replica that is not
          the file's metadata primary) is refused with
          :class:`NotPrimaryError`;
        * ``host`` already holds a live lease → renew it, same epoch;
        * another host holds a live lease → reject with
          :class:`LeaseExpiredError` (the caller is fenced out).

        Returns the grant as a JSON dict (the RPC wire format).
        """
        now = self._loop.now
        current = self._leases.get(file_id)
        if current is not None and current.valid_at(now):
            if current.holder != host:
                self.rejections += 1
                raise LeaseExpiredError(
                    f"lease on {file_id!r} held by {current.holder!r} "
                    f"(epoch {current.epoch}) until t={current.expires_at:.6g}; "
                    f"{host!r} is fenced out"
                )
            grant = replace(current, expires_at=now + self.duration)
            self._leases[file_id] = grant
            self.renewals += 1
            return grant.to_json_dict()
        if not claim:
            raise NotPrimaryError(
                f"{host!r} holds no live lease on {file_id!r} and is not "
                f"its primary"
            )
        epoch = (current.epoch if current is not None else 0) + 1
        grant = LeaseGrant(
            file_id=file_id, holder=host, epoch=epoch,
            expires_at=now + self.duration,
        )
        self._leases[file_id] = grant
        self.grants += 1
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(now, "lease.grant", "lease",
                        file_id=file_id, holder=host, epoch=epoch)
        return grant.to_json_dict()

    # ------------------------------------------------------------------
    # Heartbeat renewal + failover hooks
    # ------------------------------------------------------------------

    def renew_for_host(self, host: str) -> int:
        """Extend every live lease ``host`` holds (heartbeat piggyback)."""
        now = self._loop.now
        renewed = 0
        for file_id, grant in self._leases.items():
            if grant.holder == host and grant.valid_at(now):
                self._leases[file_id] = replace(
                    grant, expires_at=now + self.duration
                )
                renewed += 1
        if renewed:
            self.renewals += renewed
        return renewed

    def promote(self, file_id: str, new_primary: str) -> Dict[str, object]:
        """Force primaryship to ``new_primary`` with a bumped epoch.

        Called by the replica manager after it rewrote a damaged file's
        replica set.  The old holder's lease (live or not) is superseded:
        its epoch is now stale and both fencing sides will reject it.
        """
        current = self._leases.get(file_id)
        epoch = (current.epoch if current is not None else 0) + 1
        grant = LeaseGrant(
            file_id=file_id, holder=new_primary, epoch=epoch,
            expires_at=self._loop.now + self.duration,
        )
        self._leases[file_id] = grant
        self.promotions += 1
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(self._loop.now, "lease.promote", "lease",
                        file_id=file_id, holder=new_primary, epoch=epoch)
        return grant.to_json_dict()

    def expire_host(self, host: str) -> int:
        """Immediately void every lease ``host`` holds (fault injection).

        The lease records stay (with their epoch) so the next acquire —
        by anyone, including the old holder — bumps past them.
        """
        now = self._loop.now
        expired = 0
        for file_id, grant in self._leases.items():
            if grant.holder == host and grant.valid_at(now):
                self._leases[file_id] = replace(grant, expires_at=now)
                expired += 1
        if expired:
            self.expirations += expired
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.instant(now, "lease.expire_host", "lease",
                            host=host, leases=expired)
        return expired

    # ------------------------------------------------------------------
    # Fencing (nameserver-facing)
    # ------------------------------------------------------------------

    def validate(self, file_id: str, host: str, epoch: int) -> None:
        """Reject a commit report whose epoch is not current.

        Raises :class:`StaleEpochError` when the reported epoch trails
        the lease's, or when the lease moved to another holder.  A report
        for a file with no lease record is rejected too: with leasing
        armed, every epoch-stamped commit must trace to a grant.
        """
        current = self._leases.get(file_id)
        if current is None or epoch < current.epoch or current.holder != host:
            self.fencing_rejections += 1
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.instant(self._loop.now, "lease.fence", "lease",
                            file_id=file_id, host=host, epoch=epoch,
                            current_epoch=(
                                current.epoch if current is not None else 0
                            ))
            held = (
                f"current epoch {current.epoch} held by {current.holder!r}"
                if current is not None
                else "no lease on record"
            )
            raise StaleEpochError(
                f"commit on {file_id!r} by {host!r} at epoch {epoch} "
                f"rejected: {held}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def current(self, file_id: str) -> Optional[LeaseGrant]:
        return self._leases.get(file_id)

    def current_epoch(self, file_id: str) -> int:
        grant = self._leases.get(file_id)
        return grant.epoch if grant is not None else 0


class HeldLeaseTable:
    """Dataserver-side cache of the leases this host was granted.

    The primary's fast path: committing an append only needs a local
    check against the simulated clock.  The grant's *absolute* expiry
    time is authoritative (one global sim clock), so a locally-valid
    lease is always at least as conservative as the manager's view minus
    heartbeat renewals — when the local copy lapses the dataserver
    re-acquires over RPC, which either refreshes it (still the holder)
    or fences it out.
    """

    def __init__(self, loop: EventLoop) -> None:
        self._loop = loop
        self._held: Dict[str, LeaseGrant] = {}

    def install(self, grant: LeaseGrant) -> None:
        self._held[grant.file_id] = grant

    def valid(self, file_id: str) -> Optional[LeaseGrant]:
        """The live local grant for ``file_id``, or ``None`` if lapsed."""
        grant = self._held.get(file_id)
        if grant is None or not grant.valid_at(self._loop.now):
            return None
        return grant

    def drop(self, file_id: str) -> None:
        self._held.pop(file_id, None)

    def revoke_all(self) -> int:
        """Forget every cached grant (lease-revocation fault delivery).

        Epoch memory is not lost — each file's high-water epoch also
        lives on the dataserver's stored-file record — but the next
        commit must re-acquire from the manager, observing whatever
        epoch bump the revocation caused.
        """
        revoked = len(self._held)
        self._held.clear()
        return revoked
