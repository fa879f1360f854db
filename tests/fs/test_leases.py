"""Unit tests for primary leases, epochs and fencing."""

import pytest

from repro.fs.errors import LeaseExpiredError, NotPrimaryError, StaleEpochError
from repro.fs.leases import (
    DEFAULT_LEASE_DURATION,
    HeldLeaseTable,
    LeaseGrant,
    LeaseManager,
)
from repro.sim import EventLoop


def test_first_acquire_bumps_epoch_from_zero():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    grant = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostA"))
    assert grant.epoch == 1
    assert grant.holder == "hostA"
    assert grant.expires_at == pytest.approx(10.0)
    assert mgr.grants == 1


def test_same_holder_reacquire_renews_same_epoch():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    first = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostA"))
    loop.run(until=4.0)
    second = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostA"))
    assert second.epoch == first.epoch
    assert second.expires_at == pytest.approx(14.0)
    assert mgr.renewals == 1


def test_other_holder_is_fenced_while_lease_live():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    mgr.acquire("f1", "hostA")
    with pytest.raises(LeaseExpiredError):
        mgr.acquire("f1", "hostB")
    assert mgr.rejections == 1


def test_expired_lease_grants_to_new_holder_with_higher_epoch():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    first = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostA"))
    loop.run(until=11.0)
    second = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostB"))
    assert second.holder == "hostB"
    assert second.epoch == first.epoch + 1


def test_only_a_claimant_takes_a_free_lease():
    """A replica that is not the metadata primary (``claim=False``) may
    renew a lease the manager moved to it, never take a free one."""
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    with pytest.raises(NotPrimaryError):
        mgr.acquire("f1", "hostB", claim=False)
    assert mgr.grants == 0
    mgr.promote("f1", "hostB")
    renewed = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostB", claim=False))
    assert (renewed.holder, renewed.epoch) == ("hostB", 1)
    loop.run(until=11.0)
    with pytest.raises(NotPrimaryError):
        mgr.acquire("f1", "hostB", claim=False)


def test_renew_for_host_extends_all_held_leases():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    mgr.acquire("f1", "hostA")
    mgr.acquire("f2", "hostA")
    mgr.acquire("f3", "hostB")
    loop.run(until=8.0)
    assert mgr.renew_for_host("hostA") == 2
    loop.run(until=12.0)
    # hostA's leases were renewed at t=8 (live until 18); hostB's lapsed.
    assert mgr.current("f1").valid_at(loop.now)
    assert mgr.current("f2").valid_at(loop.now)
    assert not mgr.current("f3").valid_at(loop.now)


def test_promote_bumps_epoch_and_fences_old_holder():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    old = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostA"))
    promoted = LeaseGrant.from_json_dict(mgr.promote("f1", "hostB"))
    assert promoted.epoch == old.epoch + 1
    # nameserver-side fencing: the old holder's epoch is now stale
    with pytest.raises(StaleEpochError):
        mgr.validate("f1", "hostA", old.epoch)
    mgr.validate("f1", "hostB", promoted.epoch)  # current holder passes
    assert mgr.fencing_rejections == 1
    # dataserver-side fencing: the old holder cannot re-acquire
    with pytest.raises(LeaseExpiredError):
        mgr.acquire("f1", "hostA")


def test_expire_host_voids_leases_but_keeps_epoch_history():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    first = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostA"))
    assert mgr.expire_host("hostA") == 1
    assert not mgr.current("f1").valid_at(loop.now)
    # next acquire (even by the old holder) must bump past the old epoch
    again = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostA"))
    assert again.epoch == first.epoch + 1


def test_validate_rejects_unknown_file_and_wrong_holder():
    loop = EventLoop()
    mgr = LeaseManager(loop, duration=10.0)
    with pytest.raises(StaleEpochError):
        mgr.validate("ghost", "hostA", 1)
    grant = LeaseGrant.from_json_dict(mgr.acquire("f1", "hostA"))
    with pytest.raises(StaleEpochError):
        mgr.validate("f1", "hostB", grant.epoch)


def test_held_lease_table_tracks_local_validity():
    loop = EventLoop()
    table = HeldLeaseTable(loop)
    grant = LeaseGrant(file_id="f1", holder="me", epoch=3, expires_at=5.0)
    table.install(grant)
    assert table.valid("f1") is grant
    loop.run(until=6.0)
    assert table.valid("f1") is None  # lapsed on the sim clock


def test_duration_validation_and_default():
    loop = EventLoop()
    with pytest.raises(ValueError):
        LeaseManager(loop, duration=0.0)
    assert LeaseManager(loop).duration == DEFAULT_LEASE_DURATION
