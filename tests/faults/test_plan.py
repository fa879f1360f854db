"""Unit tests for fault plans and storm generation."""

import random

import pytest

from repro.faults import (
    EVENT_KINDS,
    FaultEvent,
    FaultPlan,
    RECOVERY_OF,
    StormSpec,
    build_storm,
)
from repro.net.topology import three_tier
from repro.sim.randomness import RandomStreams


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(1.0, "power_surge", "x")
        # not a fault kind: a plan naming it must fail, not no-op
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(1.0, "push_loss")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(1.0, "rpc_partition")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent(-1.0, "link_down", "a->b")

    def test_duration_on_recovery_rejected(self):
        with pytest.raises(ValueError, match="recovery"):
            FaultEvent(1.0, "link_up", "a->b", duration=2.0)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            FaultEvent(1.0, "link_down", "a->b", duration=0.0)

    def test_recovery_kind_pairing(self):
        assert FaultEvent(1.0, "link_down", "a->b").recovery_kind == "link_up"
        assert FaultEvent(1.0, "link_up", "a->b").recovery_kind is None

    def test_every_failure_kind_has_recovery_mapping(self):
        for kind in EVENT_KINDS:
            assert kind in RECOVERY_OF
            recovery = RECOVERY_OF[kind]
            if recovery is not None:
                assert RECOVERY_OF[recovery] is None


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            (
                FaultEvent(5.0, "link_down", "a->b"),
                FaultEvent(1.0, "switch_fail", "s1"),
            )
        )
        assert [e.time for e in plan.events] == [1.0, 5.0]

    def test_expanded_adds_recoveries(self):
        plan = FaultPlan((FaultEvent(2.0, "link_down", "a->b", duration=3.0),))
        expanded = plan.expanded()
        assert len(expanded) == 2
        assert expanded[1].kind == "link_up"
        assert expanded[1].time == 5.0
        assert expanded[1].target == "a->b"

    def test_expanded_leaves_untimed_events_alone(self):
        plan = FaultPlan((FaultEvent(2.0, "link_down", "a->b"),))
        assert len(plan.expanded()) == 1


class TestBuildStorm:
    def test_same_seed_same_storm(self):
        topo = three_tier()
        a = build_storm(topo, RandomStreams(7).faults())
        b = build_storm(topo, RandomStreams(7).faults())
        assert a == b

    def test_different_seed_different_storm(self):
        topo = three_tier()
        a = build_storm(topo, RandomStreams(7).faults())
        b = build_storm(topo, RandomStreams(8).faults())
        assert a != b

    def test_faults_stream_does_not_perturb_others(self):
        """Drawing the storm must not change any workload stream."""
        pristine = RandomStreams(7).stream("arrivals").random()
        streams = RandomStreams(7)
        build_storm(three_tier(), streams.faults())
        assert streams.stream("arrivals").random() == pristine

    def test_protected_hosts_never_crashed(self):
        topo = three_tier()
        protected = sorted(topo.hosts)[:4]
        spec = StormSpec(dataserver_crashes=20, protected_hosts=protected)
        plan = build_storm(topo, random.Random(3), spec)
        crashed = {e.target for e in plan.events if e.kind == "dataserver_crash"}
        assert crashed
        assert not crashed & set(protected)

    def test_only_trunk_links_failed(self):
        topo = three_tier()
        spec = StormSpec(link_failures=20)
        plan = build_storm(topo, random.Random(3), spec)
        for event in plan.events:
            if event.kind != "link_down":
                continue
            link = topo.links[event.target]
            assert link.src in topo.switches and link.dst in topo.switches

    def test_every_outage_is_timed(self):
        plan = build_storm(three_tier(), random.Random(5))
        for event in plan.events:
            assert event.duration is not None and event.duration >= 0.5

    def test_events_within_window(self):
        spec = StormSpec(start=10.0, window=5.0)
        plan = build_storm(three_tier(), random.Random(5), spec)
        for event in plan.events:
            assert 10.0 <= event.time <= 15.0
