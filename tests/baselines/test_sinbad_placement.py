"""Unit tests for Sinbad-style write placement."""

import random

import pytest

from repro.baselines.monitor import EndHostMonitor
from repro.baselines.sinbad_placement import SinbadWritePlacement
from repro.fs.errors import InvalidRequestError
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sim import EventLoop
from tests.fs.placement_oracle import validate_fault_domains

GB = 8e9


@pytest.fixture()
def env():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    monitor = EndHostMonitor(loop, net, auto_start=False)
    placement = SinbadWritePlacement(
        topo, monitor, random.Random(9), candidates_per_tier=64
    )
    return topo, loop, net, table, monitor, placement


def test_respects_fault_domains(env):
    topo, *_, placement = env
    for _ in range(20):
        replicas = placement.place(3, writer="pod0-rack0-h0")
        assert len(set(replicas)) == 3
        assert "pod0-rack0-h0" not in replicas
        assert validate_fault_domains(topo, replicas) == []


def test_avoids_hosts_busy_at_sample_time(env):
    topo, loop, net, table, monitor, placement = env
    # every host except one busy sender per rack... simpler: make a busy
    # sender and confirm it is never chosen as primary
    busy = "pod2-rack2-h2"
    net.start_flow("bg", table.paths(busy, "pod2-rack3-h0")[0], 100 * GB)
    monitor.sample_now()
    for _ in range(30):
        replicas = placement.place(3, writer="pod0-rack0-h0")
        assert replicas[0] != busy


def test_blind_between_samples(env):
    """The defining weakness: load arriving after the sample is invisible."""
    topo, loop, net, table, monitor, placement = env
    monitor.sample_now()
    busy = "pod2-rack2-h2"
    net.start_flow("bg", table.paths(busy, "pod2-rack3-h0")[0], 100 * GB)
    picked_busy = any(
        placement.place(3, writer="pod0-rack0-h0")[0] == busy for _ in range(60)
    )
    assert picked_busy  # the stale view still considers it idle


def test_invalid_parameters(env):
    topo, loop, net, table, monitor, _ = env
    with pytest.raises(ValueError):
        SinbadWritePlacement(topo, monitor, random.Random(1), candidates_per_tier=0)
    placement = SinbadWritePlacement(topo, monitor, random.Random(1))
    with pytest.raises(InvalidRequestError):
        placement.place(0)


def test_replication_bounds(env):
    topo, *_, placement = env
    assert len(placement.place(1)) == 1
    assert len(set(placement.place(5, writer="pod0-rack0-h0"))) == 5
