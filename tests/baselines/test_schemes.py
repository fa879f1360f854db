"""Unit tests for the scheme table and the flow-level Scheme."""

import pytest

from repro.baselines import SCHEMES, Scheme, scheme_spec
from repro.baselines.monitor import EndHostMonitor
from repro.baselines.selectors import NearestReplicaSelector, SinbadRSelector
from repro.core import Flowserver
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sdn import Controller
from repro.sim import EventLoop
import random

MB = 8e6


@pytest.fixture()
def env():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    routing = RoutingTable(topo)
    controller = Controller(net)
    flowserver = Flowserver(controller, routing)
    monitor = EndHostMonitor(loop, net, auto_start=False)
    nearest = NearestReplicaSelector(topo, random.Random(1))
    sinbad = SinbadRSelector(topo, monitor, random.Random(2))
    return topo, loop, net, routing, controller, flowserver, nearest, sinbad


def build(env, name):
    topo, loop, net, routing, controller, flowserver, nearest, sinbad = env
    spec = scheme_spec(name)
    selectors = {"flowserver": None, "nearest": nearest, "sinbad": sinbad}
    return Scheme(
        name,
        selectors[spec.replica],
        flowserver if spec.flowserver else None,
        routing,
    )


@pytest.mark.parametrize("name", SCHEMES)
def test_every_scheme_constructs_and_assigns(env, name):
    scheme = build(env, name)
    assignments = scheme.assign(
        "pod0-rack0-h0",
        ["pod0-rack1-h0", "pod1-rack0-h0"],
        256 * MB,
        job_id="j1",
    )
    assert assignments, f"{name} returned no flows for a remote read"
    total = sum(a.size_bits for a in assignments)
    assert total == pytest.approx(256 * MB)
    for a in assignments:
        assert a.path.src == a.replica
        assert a.path.dst == "pod0-rack0-h0"


@pytest.mark.parametrize("name", SCHEMES)
def test_local_read_returns_no_flows(env, name):
    scheme = build(env, name)
    assignments = scheme.assign(
        "pod0-rack0-h0",
        ["pod0-rack0-h0", "pod1-rack0-h0"],
        256 * MB,
    )
    assert assignments == []


def test_ecmp_scheme_ignores_congestion(env):
    """Nearest-ECMP keeps hashing onto paths regardless of load; flow ids
    are unique and increase."""
    scheme = build(env, "nearest-ecmp")
    a1 = scheme.assign("pod0-rack0-h0", ["pod1-rack0-h0"], 256 * MB)
    a2 = scheme.assign("pod0-rack0-h0", ["pod1-rack0-h0"], 256 * MB)
    assert a1[0].flow_id != a2[0].flow_id


def test_mayflower_scheme_registers_with_flowserver(env):
    topo, loop, net, routing, controller, flowserver, nearest, sinbad = env
    scheme = build(env, "mayflower")
    assignments = scheme.assign(
        "pod0-rack0-h0", ["pod1-rack0-h0", "pod2-rack0-h0"], 256 * MB
    )
    for a in assignments:
        assert a.flow_id in flowserver.state.flows


def test_path_only_scheme_respects_preselected_replica(env):
    scheme = build(env, "nearest-mayflower")
    # nearest of the two is the same-rack replica
    assignments = scheme.assign(
        "pod0-rack0-h0", ["pod0-rack0-h1", "pod3-rack3-h3"], 256 * MB
    )
    assert len(assignments) == 1
    assert assignments[0].replica == "pod0-rack0-h1"


def test_unknown_scheme_rejected(env):
    with pytest.raises(ValueError, match="unknown scheme"):
        build(env, "bogus")


def test_missing_ingredients_rejected():
    """A runner without an end-host monitor or a Hedera rescheduler
    cannot host the rows that need one."""
    with pytest.raises(ValueError, match="no end-host monitor"):
        scheme_spec("sinbad-mayflower", monitor=False)
    with pytest.raises(ValueError, match="no Hedera rescheduler"):
        scheme_spec("nearest-hedera", hedera=False)
    assert scheme_spec("nearest-ecmp", monitor=False, hedera=False).path == "ecmp"
