"""Per-pod Flowserver domains (sharded control plane).

One :class:`DomainFlowserver` runs per pod.  It *is* a
:class:`~repro.core.flowserver.Flowserver` — same selection sweep, same
freeze discipline, same degraded-mode machinery — constructed over a
:class:`~repro.sdn.domain.DomainController`, so its stats collector
polls only the pod's edge switches and its adaptive push subscriptions
stay inside the pod.  Intra-pod reads are served entirely by the
client's domain; inter-pod flows are placed by the
:class:`~repro.core.coordinator.GlobalCoordinator` and registered with
the *source* (replica-side) domain, whose collector watches the source
edge switch that feeds the flow's bandwidth estimates.

Each domain also answers :meth:`DomainFlowserver.summary` — the
aggregate pod-level headroom digest the coordinator composes instead of
per-link state: static uplink/downlink capacity plus the committed
bandwidth of the inter-pod flows this domain currently sources, bucketed
by destination pod.  That digest is O(pods) to combine, which is the
whole point of the refactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, cast

from repro.core.flowserver import Flowserver, FlowserverConfig
from repro.net.routing import RoutingTable
from repro.net.topology import Tier
from repro.sdn.controller import Controller

if TYPE_CHECKING:
    from repro.sdn.domain import DomainController


@dataclass(frozen=True)
class DomainSummary:
    """One domain's aggregate contribution to inter-pod placement.

    ``outbound_bps`` maps destination pod → committed bandwidth of the
    inter-pod flows this domain currently sources toward it (tracked
    estimates, not ground truth — the same numbers the monolithic cost
    model would read, pre-aggregated).
    """

    pod: str
    uplink_capacity_bps: float
    downlink_capacity_bps: float
    outbound_bps: Dict[str, float] = field(default_factory=dict)
    tracked_flows: int = 0

    @property
    def total_outbound_bps(self) -> float:
        return sum(self.outbound_bps.values())


class DomainFlowserver(Flowserver):
    """A pod-scoped Flowserver (one controller domain).

    Identical selection behaviour to the monolith over its own pod; the
    only deltas are the pod-prefixed flow-id namespace (two domains must
    never mint the same id into the shared data plane) and the
    :meth:`summary` digest for the global coordinator.
    """

    def __init__(
        self,
        pod: str,
        controller: "DomainController",
        routing: RoutingTable,
        config: Optional[FlowserverConfig] = None,
    ) -> None:
        if controller.pod != pod:
            raise ValueError(
                f"controller is scoped to pod {controller.pod!r}, "
                f"not {pod!r}"
            )
        self.pod = pod
        # The DomainController is a structural (duck-typed) Controller:
        # it delegates every shared operation and scopes only the poll
        # set and the view.
        super().__init__(cast(Controller, controller), routing, config)
        topology = controller.network.topology
        self._pod_of_host = {
            host_id: host.pod for host_id, host in topology.hosts.items()
        }
        aggs = {
            s.switch_id
            for s in topology.switches_in_tier(Tier.AGGREGATION)
            if s.pod == pod
        }
        cores = {
            s.switch_id for s in topology.switches_in_tier(Tier.CORE)
        }
        up = 0.0
        down = 0.0
        for link in topology.links.values():
            if link.src in aggs and link.dst in cores:
                up += link.capacity_bps
            elif link.src in cores and link.dst in aggs:
                down += link.capacity_bps
        self._uplink_capacity_bps = up
        self._downlink_capacity_bps = down

    # ------------------------------------------------------------------
    # Coordinator-facing digest
    # ------------------------------------------------------------------

    def summary(self) -> DomainSummary:
        """Aggregate headroom digest of this domain's tracked flows."""
        topology = self._controller.network.topology
        outbound: Dict[str, float] = {}
        tracked = 0
        for flow in self.state.flows.values():
            if not flow.path_link_ids:
                continue
            tracked += 1
            src = topology.links[flow.path_link_ids[0]].src
            dst = topology.links[flow.path_link_ids[-1]].dst
            src_pod = self._pod_of_host.get(src)
            dst_pod = self._pod_of_host.get(dst)
            if src_pod != self.pod or dst_pod is None or dst_pod == self.pod:
                continue
            bw = flow.bw_bps
            if bw > 0 and math.isfinite(bw):
                outbound[dst_pod] = outbound.get(dst_pod, 0.0) + bw
        return DomainSummary(
            pod=self.pod,
            uplink_capacity_bps=self._uplink_capacity_bps,
            downlink_capacity_bps=self._downlink_capacity_bps,
            outbound_bps=outbound,
            tracked_flows=tracked,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _next_flow_id(self) -> str:
        # Pod-prefixed namespace: domains share one data plane, so ids
        # minted by different domains must never collide.
        return f"{self.pod}-{super()._next_flow_id()}"


def build_domain_flowservers(
    controller: Controller,
    routing: RoutingTable,
    config: Optional[FlowserverConfig] = None,
) -> Dict[str, DomainFlowserver]:
    """Construct one :class:`DomainFlowserver` per pod (sorted order).

    Each domain gets its own scoped :class:`~repro.sdn.domain.
    DomainController` over the shared controller; configs are shared by
    reference (they are read-only tunables).
    """
    from repro.sdn.domain import DomainController

    domains: Dict[str, DomainFlowserver] = {}
    for pod in sorted(controller.network.topology.pods()):
        scoped = DomainController(controller, pod)
        domains[pod] = DomainFlowserver(pod, scoped, routing, config)
    return domains
