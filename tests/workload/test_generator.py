"""Unit tests for workload generation."""

import hashlib
import json
from collections import Counter

import pytest

from repro.net import Topology, three_tier
from repro.workload import (
    LocalityDistribution,
    WorkloadConfig,
    generate_workload,
)
from repro.workload.generator import PAPER_LOCALITIES
from repro.workload.trace import workload_to_dict


@pytest.fixture(scope="module")
def topo():
    return three_tier()


def make(topo, seed=42, **overrides):
    defaults = dict(num_files=50, num_jobs=400, arrival_rate_per_server=0.07)
    defaults.update(overrides)
    return generate_workload(topo, WorkloadConfig(**defaults), seed=seed)


class TestLocalityDistribution:
    def test_valid(self):
        LocalityDistribution(0.5, 0.3, 0.2)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LocalityDistribution(0.5, 0.5, 0.5)

    def test_no_negative(self):
        with pytest.raises(ValueError):
            LocalityDistribution(1.5, -0.3, -0.2)

    def test_paper_localities(self):
        assert len(PAPER_LOCALITIES) == 4
        assert PAPER_LOCALITIES[0].label() == "(0.5, 0.3, 0.2)"


class TestGeneration:
    def test_deterministic(self, topo):
        a = make(topo, seed=1)
        b = make(topo, seed=1)
        assert [(j.client, j.file.name, j.arrival_time) for j in a.jobs] == [
            (j.client, j.file.name, j.arrival_time) for j in b.jobs
        ]

    def test_different_seeds_differ(self, topo):
        a = make(topo, seed=1)
        b = make(topo, seed=2)
        assert [j.client for j in a.jobs] != [j.client for j in b.jobs]

    def test_arrivals_monotone_and_poisson_rate(self, topo):
        wl = make(topo, num_jobs=2000)
        times = [j.arrival_time for j in wl.jobs]
        assert all(a < b for a, b in zip(times, times[1:]))
        # mean inter-arrival ~ 1 / (0.07 * 64) = 0.223 s
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert sum(gaps) / len(gaps) == pytest.approx(1 / (0.07 * 64), rel=0.1)

    def test_client_never_a_replica_host(self, topo):
        wl = make(topo)
        for job in wl.jobs:
            assert job.client not in job.file.replicas

    def test_popularity_is_skewed(self, topo):
        wl = make(topo, num_jobs=2000)
        counts = Counter(j.file.name for j in wl.jobs)
        most_common = counts.most_common()
        assert most_common[0][1] > most_common[-1][1] * 3

    def test_locality_fractions_roughly_match(self, topo):
        wl = make(
            topo,
            num_jobs=3000,
            locality=LocalityDistribution(0.5, 0.3, 0.2),
        )
        buckets = Counter()
        for job in wl.jobs:
            primary = topo.hosts[job.file.primary]
            client = topo.hosts[job.client]
            if client.rack == primary.rack:
                buckets["rack"] += 1
            elif client.pod == primary.pod:
                buckets["pod"] += 1
            else:
                buckets["other"] += 1
        total = sum(buckets.values())
        assert buckets["rack"] / total == pytest.approx(0.5, abs=0.05)
        assert buckets["pod"] / total == pytest.approx(0.3, abs=0.05)
        assert buckets["other"] / total == pytest.approx(0.2, abs=0.05)

    def test_replica_fault_domains(self, topo):
        wl = make(topo)
        for spec in wl.files:
            pods = {topo.hosts[r].pod for r in spec.replicas}
            racks = {topo.hosts[r].rack for r in spec.replicas}
            assert len(pods) >= 2
            assert len(racks) == 3

    def test_size_bits(self, topo):
        wl = make(topo)
        job = wl.jobs[0]
        assert job.size_bits == job.read_bytes * 8

    def test_invalid_rate(self, topo):
        with pytest.raises(ValueError):
            make(topo, arrival_rate_per_server=0.0)

    def test_changing_rate_keeps_placement(self, topo):
        """Named random streams: arrival changes must not reshuffle files."""
        a = make(topo, seed=5, arrival_rate_per_server=0.07)
        b = make(topo, seed=5, arrival_rate_per_server=0.14)
        assert [f.replicas for f in a.files] == [f.replicas for f in b.files]


class TestFileSizeDistributions:
    def test_fixed_is_default(self, topo):
        wl = make(topo)
        assert {f.size_bytes for f in wl.files} == {256 * 1024 * 1024}

    def test_lognormal_spans_paper_range(self, topo):
        """§3.1: 'hundreds of megabytes to tens of gigabytes'."""
        wl = make(
            topo,
            num_files=300,
            file_size_distribution="lognormal",
            file_size_sigma=1.2,
        )
        sizes = [f.size_bytes for f in wl.files]
        assert min(sizes) >= 100 * 1024 * 1024
        assert max(sizes) <= 32 * 1024 * 1024 * 1024
        assert max(sizes) > 1024 * 1024 * 1024  # some multi-GB files
        assert len(set(sizes)) > 100  # genuinely spread

    def test_read_whole_file(self, topo):
        wl = make(
            topo,
            file_size_distribution="lognormal",
            read_whole_file=True,
        )
        for job in wl.jobs:
            assert job.read_bytes == job.file.size_bytes

    def test_block_reads_never_exceed_file(self, topo):
        wl = make(
            topo,
            file_size_distribution="lognormal",
            file_size_sigma=2.0,
        )
        for job in wl.jobs:
            assert job.read_bytes <= job.file.size_bytes

    def test_unknown_distribution_rejected(self, topo):
        with pytest.raises(ValueError, match="file_size_distribution"):
            make(topo, file_size_distribution="pareto")


class ScanTopology(Topology):
    """Rack and pod membership by definition: a scan of every host."""

    def hosts_in_rack(self, rack):
        return [h for h in self.hosts.values() if h.rack == rack]

    def hosts_in_pod(self, pod):
        return [h for h in self.hosts.values() if h.pod == pod]


# sha256 of the sorted-key JSON trace (seed 7, 600 jobs), recorded before
# Topology kept a rack/pod index: client placement draws from these lists,
# so their order is part of every generated trace.
TRACE_PINS = [
    (dict(), 100, "c25820f926d75a11604fc903fba00cbfd16a784fded8c0ffc917f24a2bd940b3"),
    (dict(pods=16, racks_per_pod=16), 400,
     "a48094cd3ea1546893ae82fa271e5bfd21dc4c56c412a9d724c02db3c59e1de2"),
]


@pytest.mark.parametrize("shape, files, pinned", TRACE_PINS, ids=["64", "1024"])
def test_trace_is_the_one_a_host_scan_generates(shape, files, pinned):
    indexed = three_tier(**shape)
    scanned = ScanTopology()
    for switch in indexed.switches.values():
        scanned.add_switch(switch)
    for host in indexed.hosts.values():
        scanned.add_host(host)
    for rack in indexed.racks():
        assert indexed.hosts_in_rack(rack) == scanned.hosts_in_rack(rack)
    for pod in indexed.pods():
        assert indexed.hosts_in_pod(pod) == scanned.hosts_in_pod(pod)
    assert indexed.hosts_in_rack("no-such-rack") == indexed.hosts_in_pod("no-such-pod") == []

    config = WorkloadConfig(num_files=files, num_jobs=600)
    trace = workload_to_dict(generate_workload(indexed, config, seed=7))
    assert trace == workload_to_dict(generate_workload(scanned, config, seed=7))
    encoded = json.dumps(trace, sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == pinned
