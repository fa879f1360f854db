"""Unit tests for replica placement policies."""

import random
from collections import Counter

import pytest

from repro.fs.errors import InvalidRequestError
from repro.fs.placement import HdfsRackAwarePlacement, PaperEvalPlacement
from repro.net import three_tier
from tests.fs.placement_oracle import validate_fault_domains


@pytest.fixture(scope="module")
def topo():
    return three_tier()


class TestPaperEvalPlacement:
    def test_three_replicas_follow_section_6_1(self, topo):
        policy = PaperEvalPlacement(topo, random.Random(1))
        for _ in range(100):
            replicas = policy.place(3)
            assert len(set(replicas)) == 3
            primary, second, third = (topo.hosts[r] for r in replicas)
            assert second.pod == primary.pod
            assert second.rack != primary.rack
            assert third.pod != primary.pod
            assert validate_fault_domains(topo, replicas) == []

    def test_primary_roughly_uniform(self, topo):
        policy = PaperEvalPlacement(topo, random.Random(2))
        counts = Counter(policy.place(3)[0] for _ in range(2000))
        # 64 hosts, ~31 each; no host should dominate
        assert max(counts.values()) < 3 * 2000 / 64

    def test_replication_one_and_two(self, topo):
        policy = PaperEvalPlacement(topo, random.Random(3))
        assert len(policy.place(1)) == 1
        two = policy.place(2)
        assert len(set(two)) == 2
        assert topo.hosts[two[0]].pod == topo.hosts[two[1]].pod

    def test_higher_replication_spreads_racks(self, topo):
        policy = PaperEvalPlacement(topo, random.Random(4))
        replicas = policy.place(5)
        assert len(set(replicas)) == 5
        racks = [topo.hosts[r].rack for r in replicas]
        assert len(set(racks)) == 5

    def test_invalid_replication(self, topo):
        policy = PaperEvalPlacement(topo, random.Random(5))
        with pytest.raises(InvalidRequestError):
            policy.place(0)

    def test_deterministic_for_seed(self, topo):
        a = PaperEvalPlacement(topo, random.Random(7)).place(3)
        b = PaperEvalPlacement(topo, random.Random(7)).place(3)
        assert a == b


class TestHdfsRackAwarePlacement:
    def test_two_replicas_share_primary_rack(self, topo):
        policy = HdfsRackAwarePlacement(topo, random.Random(1))
        for _ in range(100):
            replicas = policy.place(3)
            assert len(set(replicas)) == 3
            primary, second, third = (topo.hosts[r] for r in replicas)
            assert second.rack == primary.rack
            assert third.rack != primary.rack

    def test_further_replicas_in_distinct_racks(self, topo):
        policy = HdfsRackAwarePlacement(topo, random.Random(2))
        replicas = policy.place(4)
        racks = [topo.hosts[r].rack for r in replicas]
        assert racks[0] == racks[1]
        assert len({racks[0], racks[2], racks[3]}) == 3

    def test_single_replica(self, topo):
        policy = HdfsRackAwarePlacement(topo, random.Random(3))
        assert len(policy.place(1)) == 1


class TestValidateFaultDomains:
    def test_duplicates_flagged(self, topo):
        problems = validate_fault_domains(topo, ["pod0-rack0-h0", "pod0-rack0-h0"])
        assert any("duplicate" in p for p in problems)

    def test_shared_rack_flagged(self, topo):
        replicas = ["pod0-rack0-h0", "pod0-rack0-h1", "pod1-rack0-h0"]
        assert validate_fault_domains(topo, replicas) == ["two replicas share a rack"]

    def test_single_pod_flagged(self, topo):
        replicas = ["pod0-rack0-h0", "pod0-rack1-h0", "pod0-rack2-h0"]
        problems = validate_fault_domains(topo, replicas)
        assert any("one pod" in p for p in problems)

    def test_valid_spread_passes(self, topo):
        replicas = ["pod0-rack0-h0", "pod0-rack1-h0", "pod1-rack0-h0"]
        assert validate_fault_domains(topo, replicas) == []
