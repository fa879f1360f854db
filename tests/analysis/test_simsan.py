"""Runtime tests for the SimSanitizer.

Covers the five invariants (capacity feasibility, route consistency,
freeze discipline, RNG stream isolation, link-memo validity), the
arm/disarm lifecycle, and
the engine post-event hook wiring — including proof that a *healthy*
simulation runs to completion with the sanitizer armed.
"""

import pytest

from repro.analysis import simsan
from repro.analysis.simsan import SimSanError, SimSanitizer
from repro.core import Flowserver, FlowserverConfig
from repro.core.cost import LinkShareCache
from repro.core.flow_state import FlowStateTable, TrackedFlow
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.sdn import Controller
from repro.sim import EventLoop, RandomStreams
from repro.sim import instrument

MB = 8e6


@pytest.fixture()
def sanitizer():
    simsan.disarm()  # drop any ambient --simsan arming for a fresh instance
    san = simsan.arm()
    yield san
    simsan.disarm()


def build_env():
    topo = three_tier()
    loop = EventLoop()
    net = FlowNetwork(loop, topo)
    table = RoutingTable(topo)
    return topo, loop, net, table


# ----------------------------------------------------------------------
# Lifecycle / wiring
# ----------------------------------------------------------------------


def test_arm_is_idempotent_and_disarm_clears_hooks(sanitizer):
    assert simsan.arm() is sanitizer
    assert simsan.get_active() is sanitizer
    assert instrument.POST_EVENT_HOOKS
    simsan.disarm()
    assert simsan.get_active() is None
    assert not instrument.POST_EVENT_HOOKS


def test_components_register_through_instrument(sanitizer):
    _, loop, net, _ = build_env()
    controller = Controller(net)
    streams = RandomStreams(7)
    assert net in sanitizer._networks
    assert controller in sanitizer._controllers
    assert streams in sanitizer._streams


def test_healthy_simulation_runs_clean_under_sanitizer(sanitizer):
    _, loop, net, table = build_env()
    controller = Controller(net)
    for i, (src, dst) in enumerate(
        [("pod0-rack0-h0", "pod1-rack0-h0"), ("pod0-rack0-h1", "pod2-rack0-h0")]
    ):
        controller.start_transfer(f"f{i}", table.paths(src, dst)[0], 50 * MB)
    loop.run()
    assert not net.active_flows
    assert sanitizer.events_checked > 0
    assert sanitizer.checks_run > sanitizer.events_checked  # several per event


def test_unarmed_simulation_pays_no_checks():
    simsan.disarm()
    san = SimSanitizer()  # constructed but never armed
    _, loop, net, table = build_env()
    net.start_flow("f", table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0], 10 * MB)
    loop.run()
    assert san.events_checked == 0


# ----------------------------------------------------------------------
# Invariant 1: capacity feasibility
# ----------------------------------------------------------------------


def test_oversubscription_detected_at_the_breaking_event(sanitizer):
    _, loop, net, table = build_env()
    path = table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0]
    flow = net.start_flow("f", path, 500 * MB)
    loop.run(until=0.01)

    # Sabotage ground truth: allocate 10x the access-link capacity.
    access = net.topology.links[path.link_ids[0]]
    flow.rate_bps = access.capacity_bps * 10
    loop.call_in(0.001, lambda: None)
    with pytest.raises(SimSanError, match="oversubscribed"):
        loop.run()


def test_negative_rate_detected(sanitizer):
    _, loop, net, table = build_env()
    flow = net.start_flow(
        "f", table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0], 500 * MB
    )
    loop.run(until=0.01)
    flow.rate_bps = -1.0
    loop.call_in(0.001, lambda: None)
    with pytest.raises(SimSanError, match="negative rate"):
        loop.run()


# ----------------------------------------------------------------------
# Invariant 2: route consistency
# ----------------------------------------------------------------------


def test_table_inconsistency_detected(sanitizer):
    _, loop, net, table = build_env()
    controller = Controller(net)
    path = table.paths("pod0-rack0-h0", "pod1-rack0-h0")[0]
    controller.start_transfer("f", path, 500 * MB)
    loop.run(until=0.01)

    # End the flow behind the controller's back: its route goes stale.
    net.cancel_flow("f")
    loop.call_in(0.001, lambda: None)
    with pytest.raises(SimSanError, match="routes inconsistent"):
        loop.run()


# ----------------------------------------------------------------------
# Invariant 3: freeze discipline (Pseudocode 2)
# ----------------------------------------------------------------------


class _FakeFlow:
    def __init__(self, freezed, freeze_until):
        self.freezed = freezed
        self.freeze_until = freeze_until


class _FakeFlowserver:
    """Just enough surface for check_flowserver."""

    class _State:
        def __init__(self):
            self.flows = {}
            self.link_memo = {}

    class _Config:
        enable_freeze = True

    class _Loop:
        now = 0.0

    def __init__(self):
        self.state = self._State()
        self.config = self._Config()
        self.loop = self._Loop()


def test_freeze_regression_before_expiry_detected(sanitizer):
    fs = _FakeFlowserver()
    fs.state.flows["f"] = _FakeFlow(freezed=True, freeze_until=10.0)
    fs.loop.now = 1.0
    sanitizer.check_flowserver(fs)  # baseline snapshot

    fs.state.flows["f"].freezed = False  # regressed with 9s still to go
    fs.loop.now = 2.0
    with pytest.raises(SimSanError, match="regressed"):
        sanitizer.check_flowserver(fs)


def test_unfreeze_after_expiry_is_legal(sanitizer):
    fs = _FakeFlowserver()
    fs.state.flows["f"] = _FakeFlow(freezed=True, freeze_until=10.0)
    fs.loop.now = 1.0
    sanitizer.check_flowserver(fs)

    fs.state.flows["f"].freezed = False
    fs.loop.now = 10.5  # freeze expired; a poll may legally unfreeze
    sanitizer.check_flowserver(fs)


def test_freeze_ablation_is_exempt(sanitizer):
    fs = _FakeFlowserver()
    fs.config.enable_freeze = False
    fs.state.flows["f"] = _FakeFlow(freezed=True, freeze_until=10.0)
    fs.loop.now = 1.0
    sanitizer.check_flowserver(fs)
    fs.state.flows["f"].freezed = False
    fs.loop.now = 2.0
    sanitizer.check_flowserver(fs)  # no error: ablation never freezes


def test_removed_flow_does_not_trip_the_check(sanitizer):
    fs = _FakeFlowserver()
    fs.state.flows["f"] = _FakeFlow(freezed=True, freeze_until=10.0)
    sanitizer.check_flowserver(fs)
    del fs.state.flows["f"]
    sanitizer.check_flowserver(fs)


# ----------------------------------------------------------------------
# Invariant 5: link-memo validity
# ----------------------------------------------------------------------


def test_stale_link_memo_entry_detected(sanitizer):
    state = FlowStateTable()
    state.add(TrackedFlow("f", ("l",), 8e7, 8e7, 40e6))
    LinkShareCache(state).probe_share("l", 100e6)
    sanitizer.check_link_memo(state, 0.0)  # freshly filled: valid

    state.flows["f"].bw_bps = 10e6  # written behind the table's back
    with pytest.raises(SimSanError, match="link memo of l is stale"):
        sanitizer.check_link_memo(state, 0.0)

    state.link_memo.clear()
    LinkShareCache(state).probe_share("l", 100e6)
    state.link_memo["l"].probe[100e6] = 1.0  # planted wrong share
    with pytest.raises(SimSanError, match="link memo of l is stale"):
        sanitizer.check_link_memo(state, 0.0)


def test_link_memo_fill_order_checked(sanitizer):
    state = FlowStateTable()
    for flow_id, bw in (("a", 40e6), ("b", 0.0), ("c", 10e6), ("d", 10e6)):
        state.add(TrackedFlow(flow_id, ("l",), 8e7, 8e7, bw))
    LinkShareCache(state).probe_share("l", 100e6)
    assert state.link_memo["l"].fill == [2, 3, 0]  # ascending, ties in id order
    sanitizer.check_link_memo(state, 0.0)

    state.link_memo["l"].fill = [3, 2, 0]  # planted wrong tie order
    with pytest.raises(SimSanError, match="link memo of l is stale"):
        sanitizer.check_link_memo(state, 0.0)


def test_flowserver_link_memo_stays_valid_through_polls(sanitizer):
    """Overlapping reads with every poll applied: each UPDATEBW must drop
    the memo of the links its flow crosses."""
    _, loop, net, table = build_env()
    controller = Controller(net)
    flowserver = Flowserver(controller, table, FlowserverConfig(enable_freeze=False))
    clients = ["pod0-rack0-h0", "pod1-rack0-h0", "pod2-rack1-h0"]
    replicas = ["pod0-rack1-h0", "pod3-rack0-h0", "pod1-rack1-h1"]

    def read(i):
        result = flowserver.select(clients[i % len(clients)], replicas, 1000 * MB)
        for a in result.assignments:
            if a.path is not None:
                controller.start_transfer(a.flow_id, a.path, a.size_bits)

    for i in range(12):
        loop.call_at(0.5 * i, lambda i=i: read(i))
    loop.run()
    assert flowserver.collector.measurements_applied > 0
    assert flowserver.link_cache.hits > 0


# ----------------------------------------------------------------------
# Invariant 4: RNG stream isolation
# ----------------------------------------------------------------------


def test_independent_stream_draws_pass(sanitizer):
    streams = RandomStreams(42)
    arrivals = streams.stream("arrivals")
    placement = streams.stream("placement")
    sanitizer.check_streams(streams)
    arrivals.random()
    sanitizer.check_streams(streams)
    placement.uniform(0, 1)
    arrivals.random()
    sanitizer.check_streams(streams)


def test_external_reseed_detected(sanitizer):
    streams = RandomStreams(42)
    rng = streams.stream("arrivals")
    rng.random()
    sanitizer.check_streams(streams)
    rng.seed(0)  # state changed, draw counter did not
    with pytest.raises(SimSanError, match="without recording a draw"):
        sanitizer.check_streams(streams)


def test_shared_generator_object_detected(sanitizer):
    streams = RandomStreams(42)
    streams.stream("a")
    streams._streams["b"] = streams._streams["a"]
    with pytest.raises(SimSanError, match="same generator object"):
        sanitizer.check_streams(streams)


def test_draw_counts_advance_independently(sanitizer):
    streams = RandomStreams(42)
    a = streams.stream("a")
    b = streams.stream("b")
    a.random()
    a.randint(1, 10)
    b.random()
    counts = {name: draws for name, _, draws in streams.stream_snapshot()}
    assert counts["a"] >= 2
    assert counts["b"] == 1


def test_streams_bit_identical_to_plain_random():
    # The counting subclass must not perturb sequences: determinism
    # fingerprints depend on it.
    import random as stdlib_random

    from repro.sim.randomness import seeded_rng

    ours, theirs = seeded_rng(1234), stdlib_random.Random(1234)
    assert [ours.random() for _ in range(5)] == [theirs.random() for _ in range(5)]
    assert ours.randint(0, 10**9) == theirs.randint(0, 10**9)
    assert ours.sample(range(100), 10) == theirs.sample(range(100), 10)


def test_env_var_arms_the_sanitizer_from_any_entry_point():
    """``REPRO_SIMSAN=1`` arms on ``import repro``: an entry point that
    imports only the engine still runs sanitized, and without the
    variable ``repro.analysis`` is never loaded."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    probe = (
        "import sys, repro.sim.engine\n"
        "san = sys.modules.get('repro.analysis.simsan')\n"
        "print(san is not None and san.get_active() is not None)\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    for value, armed in (("1", "True"), ("0", "False")):
        env = dict(os.environ, PYTHONPATH=src, REPRO_SIMSAN=value)
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == armed
