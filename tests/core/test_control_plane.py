"""The one control-plane builder: what it builds and what it exposes."""

from repro.core import Flowserver, build_control_plane
from repro.net import three_tier


def test_monolith_is_the_front_and_owns_the_one_collector():
    plane = build_control_plane(three_tier(pods=2, racks_per_pod=2, hosts_per_rack=2))
    assert isinstance(plane.flowserver, Flowserver)
    assert plane.flowserver.collector is not None
    assert plane.flowserver.loop is plane.loop
    assert plane.controller.network is plane.network


def test_no_flowserver_builds_the_bare_network():
    plane = build_control_plane(three_tier(pods=2), flowserver=False)
    assert plane.flowserver is None
    plane.close()  # nothing to stop


def test_close_stops_every_collector_and_is_idempotent():
    plane = build_control_plane(three_tier(pods=4, racks_per_pod=2))
    collector = plane.flowserver.collector
    assert not collector._timer.stopped
    plane.close()
    plane.close()
    assert collector._timer.stopped
