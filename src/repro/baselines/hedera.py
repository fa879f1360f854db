"""Hedera-style centralized flow scheduling (§2.4 related work).

Hedera (NSDI '10) periodically detects *elephant* flows and re-places
them on least-loaded paths using global network information — but, as the
paper argues in §1, it "cannot take advantage of the availability of
multiple replica choices": the endpoints are fixed, so when every path
between the requester and the pre-selected replica is congested it has
nothing left to do.

:class:`HederaScheduler` reproduces the Global First Fit variant:

1. every ``interval`` seconds, list active flows and keep those with more
   than ``elephant_threshold_bits`` outstanding;
2. estimate each elephant's natural demand as its host-NIC fair share
   (edge capacity divided by the number of flows sharing the source's
   uplink — Hedera's host-limited demand estimator, simplified);
3. walk elephants largest-first and greedily assign each to the first
   equal-cost path whose links can absorb the demand on top of the
   reservations made so far this round; re-route through the controller
   when the chosen path differs from the current one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.routing import RoutingTable
from repro.net.simulator import Flow
from repro.sdn.controller import Controller
from repro.sim.engine import EventLoop, PeriodicTimer


class HederaScheduler:
    """Periodic global first-fit rescheduler for elephant flows."""

    def __init__(
        self,
        loop: EventLoop,
        controller: Controller,
        routing: RoutingTable,
        interval: float = 5.0,
        elephant_threshold_bits: float = 100e6,
        auto_start: bool = True,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._loop = loop
        self._controller = controller
        self._routing = routing
        self._topo = controller.network.topology
        self.interval = interval
        self.elephant_threshold_bits = elephant_threshold_bits
        self.rounds = 0
        self.reroutes = 0
        self._timer: Optional[PeriodicTimer] = None
        if auto_start:
            self.start()

    def start(self) -> None:
        if self._timer is None or self._timer.stopped:
            self._timer = PeriodicTimer(self._loop, self.interval, self.schedule_round)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    # ------------------------------------------------------------------
    # One scheduling round
    # ------------------------------------------------------------------

    def schedule_round(self) -> int:
        """Run global first fit once; returns the number of re-routes."""
        self.rounds += 1
        network = self._controller.network
        flows = list(network.active_flows.values())
        elephants = [
            f for f in flows if f.remaining_bits > self.elephant_threshold_bits
        ]
        if not elephants:
            return 0
        demands = self._estimate_demands(flows)

        # Reservations start with the demands of the non-elephant flows on
        # their current paths; elephants are placed on top, largest first.
        reserved: Dict[str, float] = {}
        for flow in flows:
            if flow in elephants:
                continue
            for link_id in flow.path.link_ids:
                reserved[link_id] = reserved.get(link_id, 0.0) + demands[flow.flow_id]

        moved = 0
        for flow in sorted(
            elephants, key=lambda f: (-f.remaining_bits, f.flow_id)
        ):
            demand = demands[flow.flow_id]
            chosen = None
            for path in self._routing.paths(flow.src, flow.dst):
                if self._fits(path.link_ids, demand, reserved):
                    chosen = path
                    break
            if chosen is None:
                chosen = flow.path  # nothing fits: leave it where it is
            for link_id in chosen.link_ids:
                reserved[link_id] = reserved.get(link_id, 0.0) + demand
            if chosen.link_ids != flow.path.link_ids:
                self._controller.reroute_transfer(flow.flow_id, chosen)
                moved += 1
        self.reroutes += moved
        return moved

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _estimate_demands(self, flows: List[Flow]) -> Dict[str, float]:
        """Host-limited demand: edge capacity over flows sharing the uplink."""
        sharing: Dict[str, int] = {}
        for flow in flows:
            sharing[flow.src] = sharing.get(flow.src, 0) + 1
        demands = {}
        for flow in flows:
            edge = self._topo.edge_switch_of(flow.src)
            capacity = self._topo.link_between(flow.src, edge).capacity_bps
            demands[flow.flow_id] = capacity / sharing[flow.src]
        return demands

    def _fits(
        self,
        link_ids,
        demand: float,
        reserved: Dict[str, float],
    ) -> bool:
        for link_id in link_ids:
            capacity = self._topo.links[link_id].capacity_bps
            if reserved.get(link_id, 0.0) + demand > capacity * (1 + 1e-9):
                return False
        return True
