"""Sinbad-style write placement from end-host measurements.

This is the system the paper positions itself against for writes (§1):
Sinbad "monitors end-host information, such as the bandwidth utilization
of each server, and uses this information together with the network
topology to estimate the bottleneck link for each write request."  Its
weakness, also from §1: "by not accounting for the bandwidth of
individual flows and the total number of flows in each link, Sinbad
cannot accurately estimate path bandwidths."

The implementation mirrors :class:`~repro.cluster.planners.
FlowserverWritePlacement`'s fault-domain skeleton but scores candidates
from the :class:`~repro.baselines.monitor.EndHostMonitor`'s periodically
sampled counters — so its view is stale between samples and blind to
per-flow shares, exactly the gap the co-designed placement closes.
"""

from __future__ import annotations

from random import Random
from typing import List, Optional, Sequence

from repro.baselines.monitor import EndHostMonitor
from repro.fs.errors import InvalidRequestError
from repro.fs.placement import PlacementPolicy
from repro.net.topology import Topology


class SinbadWritePlacement(PlacementPolicy):
    """Congestion-aware placement from sampled end-host utilization."""

    def __init__(
        self,
        topology: Topology,
        monitor: EndHostMonitor,
        rng: Random,
        candidates_per_tier: int = 8,
    ):
        if candidates_per_tier < 1:
            raise ValueError("candidates_per_tier must be >= 1")
        self._topo = topology
        self._monitor = monitor
        self._rng = rng
        self.candidates_per_tier = candidates_per_tier

    def place(self, replication: int, writer: Optional[str] = None) -> List[str]:
        if replication < 1:
            raise InvalidRequestError(f"replication must be >= 1, got {replication}")
        hosts = sorted(self._topo.hosts)

        pool = [h for h in hosts if h != writer] or hosts
        primary = self._least_utilized(pool)
        chosen = [primary]
        if replication == 1:
            return chosen
        primary_host = self._topo.hosts[primary]

        same_pod_other_rack = [
            h.host_id
            for h in self._topo.hosts.values()
            if h.pod == primary_host.pod
            and h.rack != primary_host.rack
            and h.host_id not in chosen
            and h.host_id != writer
        ]
        if same_pod_other_rack:
            chosen.append(self._least_utilized(sorted(same_pod_other_rack)))
        if replication == 2:
            return chosen[:2]

        other_pod = [
            h.host_id
            for h in self._topo.hosts.values()
            if h.pod != primary_host.pod
            and h.host_id not in chosen
            and h.host_id != writer
        ]
        if other_pod:
            chosen.append(self._least_utilized(sorted(other_pod)))

        while len(chosen) < replication:
            used_racks = {self._topo.hosts[c].rack for c in chosen}
            remaining = sorted(
                h.host_id
                for h in self._topo.hosts.values()
                if h.rack not in used_racks
                and h.host_id not in chosen
                and h.host_id != writer
            ) or sorted(set(hosts) - set(chosen) - {writer}) or sorted(
                set(hosts) - set(chosen)
            )
            if not remaining:
                raise InvalidRequestError(
                    f"cannot place {replication} replicas on {len(hosts)} hosts"
                )
            chosen.append(self._least_utilized(remaining))
        return chosen[:replication]

    def _least_utilized(self, pool: Sequence[str]) -> str:
        """Candidate with the least *sampled* contention near its edge.

        Sinbad's estimate for a write destination: the host's own link
        utilization and its rack uplink estimate, both from the last
        monitor sample.
        """
        if not pool:
            raise InvalidRequestError("no eligible host for replica placement")
        sample_size = min(self.candidates_per_tier, len(pool))
        candidates = self._rng.sample(list(pool), sample_size)
        scored = []
        for host in sorted(candidates):
            rack = self._topo.hosts[host].rack
            score = max(
                self._monitor.host_uplink_fraction(host),
                self._monitor.rack_uplink_fraction(rack),
            )
            scored.append((score, host))
        best = min(score for score, _ in scored)
        winners = [h for score, h in scored if score <= best + 1e-12]
        return winners[self._rng.randrange(len(winners))]
