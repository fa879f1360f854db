"""The one wiring of the SDN control plane.

The DFS cluster (Fig. 8) and the flow-level runner (Figs. 4–7) both
build theirs here: event loop, network, routing table, controller and,
for schemes that have one, either the paper's monolithic
:class:`Flowserver` or one :class:`~repro.core.domains.DomainFlowserver`
per pod behind a :class:`GlobalCoordinator`.  The monolith-or-domains
fork and its validation exist only here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

from repro.core.coordinator import GlobalCoordinator
from repro.core.domains import build_domain_flowservers
from repro.core.flowserver import Flowserver, FlowserverConfig
from repro.net.routing import RoutingTable
from repro.net.simulator import FlowNetwork
from repro.net.topology import Topology
from repro.sdn.controller import Controller
from repro.sim.engine import EventLoop

if TYPE_CHECKING:
    from repro.core.stats import FlowStatsCollector


@dataclass
class ControlPlane:
    """An assembled control plane; ``flowserver`` is the monolith, if any."""

    loop: EventLoop
    network: FlowNetwork
    routing: RoutingTable
    controller: Controller
    flowserver: Optional[Flowserver] = None
    coordinator: Optional[GlobalCoordinator] = None

    @property
    def front(self) -> Optional[Union[Flowserver, GlobalCoordinator]]:
        """What serves ``select`` / ``plan_replication_fanout``: the
        coordinator when sharded, else the monolith (``None`` if neither)."""
        return self.coordinator if self.coordinator is not None else self.flowserver

    @property
    def collectors(self) -> List["FlowStatsCollector"]:
        """Every stats collector, one per domain (pod order) when sharded."""
        if self.coordinator is not None:
            return [d.collector for d in self.coordinator.domains.values()]
        return [self.flowserver.collector] if self.flowserver is not None else []

    def close(self) -> None:
        """Stop every collector's polling (idempotent)."""
        if self.front is not None:
            self.front.close()


def build_control_plane(
    topology: Topology,
    *,
    flowserver: bool = True,
    config: Optional[FlowserverConfig] = None,
    domains: int = 1,
) -> ControlPlane:
    """Build the control plane over ``topology``; ``flowserver`` says
    whether the scheme has one, ``domains`` > 1 shards it per pod."""
    loop = EventLoop()
    network = FlowNetwork(loop, topology)
    routing = RoutingTable(topology)
    controller = Controller(network)
    plane = ControlPlane(loop, network, routing, controller)
    if domains <= 1:
        if flowserver:
            plane.flowserver = Flowserver(controller, routing, config)
        return plane
    if not flowserver:
        raise ValueError("controller_domains > 1 requires a flowserver scheme")
    pods = topology.pods()
    if domains != len(pods):
        raise ValueError(
            f"controller_domains={domains} must equal the pod count "
            f"({len(pods)}): domains are pod-granular"
        )
    per_pod = build_domain_flowservers(controller, routing, config)
    plane.coordinator = GlobalCoordinator(controller, routing, per_pod, config)
    return plane
