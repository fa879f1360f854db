"""End-host bandwidth monitoring (the Sinbad substrate).

Sinbad "monitors end-host information, such as the bandwidth utilization
of each server, and uses this information together with the network
topology to estimate the bottleneck link" (§1).  This module reproduces
that vantage point: every ``sample_interval`` seconds each host samples
its own NIC transmit rate (end hosts know their own counters exactly),
and rack uplink utilization is *estimated* as the sum of the member
hosts' transmit rates — an upper bound, since some of that traffic stays
in the rack.  Between samples the view is stale, which is precisely the
estimation weakness the paper contrasts with Mayflower's flow-level
modelling.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.simulator import FlowNetwork
from repro.sim.engine import EventLoop, PeriodicTimer


class EndHostMonitor:
    """Periodically sampled per-host uplink utilization.

    Parameters
    ----------
    sample_interval:
        Seconds between samples (1 s default, matching typical end-host
        monitoring daemons).
    """

    def __init__(
        self,
        loop: EventLoop,
        network: FlowNetwork,
        sample_interval: float = 1.0,
        auto_start: bool = True,
    ):
        if sample_interval <= 0:
            raise ValueError(f"sample_interval must be positive, got {sample_interval}")
        self._loop = loop
        self._network = network
        self._topo = network.topology
        self.sample_interval = sample_interval
        self._host_tx_bps: Dict[str, float] = {h: 0.0 for h in self._topo.hosts}
        self.samples_taken = 0
        self._timer: Optional[PeriodicTimer] = None
        if auto_start:
            self.start()

    def start(self) -> None:
        if self._timer is None or self._timer.stopped:
            self._timer = PeriodicTimer(
                self._loop, self.sample_interval, self.sample_now, first_delay=0.0
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def sample_now(self) -> None:
        """Take an immediate sample of every host's uplink transmit rate."""
        for host_id in self._host_tx_bps:
            edge = self._topo.edge_switch_of(host_id)
            link_id = f"{host_id}->{edge}"
            self._host_tx_bps[host_id] = self._network.link_utilization_bps(link_id)
        self.samples_taken += 1

    # ------------------------------------------------------------------
    # Views consumed by Sinbad-R
    # ------------------------------------------------------------------

    def host_uplink_fraction(self, host_id: str) -> float:
        """Utilization as a fraction of the edge link capacity."""
        edge = self._topo.edge_switch_of(host_id)
        link = self._topo.link_between(host_id, edge)
        return self._host_tx_bps[host_id] / link.capacity_bps

    def rack_uplink_fraction(self, rack: str) -> float:
        """Estimated utilization of the rack's core-facing uplinks.

        Computed from end-host counters only: the sum of member hosts'
        transmit rates over the total rack uplink capacity.  An upper
        bound, since rack-local traffic never uses the uplinks.
        """
        member_tx = sum(
            self._host_tx_bps[h.host_id] for h in self._topo.hosts_in_rack(rack)
        )
        uplink_capacity = sum(
            self._topo.links[lid].capacity_bps
            for lid in self._topo.adjacency[rack]
            if self._topo.links[lid].dst in self._topo.switches
        )
        if uplink_capacity <= 0:
            return 0.0
        return member_tx / uplink_capacity
