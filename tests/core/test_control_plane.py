"""The one control-plane builder: what it builds and what it exposes."""

import pytest

from repro.core import (
    Flowserver,
    FlowserverConfig,
    GlobalCoordinator,
    build_control_plane,
)
from repro.net import three_tier


def test_monolith_is_the_front_and_owns_the_one_collector():
    plane = build_control_plane(three_tier(pods=2, racks_per_pod=2, hosts_per_rack=2))
    assert isinstance(plane.flowserver, Flowserver)
    assert plane.front is plane.flowserver
    assert plane.coordinator is None
    assert plane.collectors == [plane.flowserver.collector]
    assert plane.flowserver.loop is plane.loop
    assert plane.controller.network is plane.network


def test_no_flowserver_builds_the_bare_network():
    plane = build_control_plane(three_tier(pods=2), flowserver=False, domains=1)
    assert plane.front is None and plane.flowserver is None
    assert plane.collectors == []
    plane.close()  # nothing to stop


def test_domains_put_the_coordinator_in_front():
    topo = three_tier(pods=4, racks_per_pod=2, hosts_per_rack=2)
    config = FlowserverConfig(poll_interval=0.5)
    plane = build_control_plane(topo, config=config, domains=4)
    assert plane.flowserver is None
    assert isinstance(plane.front, GlobalCoordinator)
    assert plane.front is plane.coordinator
    domains = plane.coordinator.domains
    assert list(domains) == sorted(topo.pods())
    assert plane.collectors == [domains[p].collector for p in sorted(topo.pods())]
    assert all(d.config is config for d in domains.values())


@pytest.mark.parametrize("domains", [1, 4])
def test_close_stops_every_collector_and_is_idempotent(domains):
    plane = build_control_plane(three_tier(pods=4, racks_per_pod=2), domains=domains)
    assert not any(c._timer.stopped for c in plane.collectors)
    plane.close()
    plane.close()
    assert all(c._timer.stopped for c in plane.collectors)
