"""The one wiring of the SDN control plane.

The DFS cluster (Fig. 8) and the flow-level runner (Figs. 4–7) both
build theirs here: event loop, network, routing table, controller and,
for schemes that have one, the paper's :class:`Flowserver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.flowserver import Flowserver, FlowserverConfig
from repro.net.routing import RoutingTable
from repro.net.simulator import FlowNetwork
from repro.net.topology import Topology
from repro.sdn.controller import Controller
from repro.sim.engine import EventLoop


@dataclass
class ControlPlane:
    """An assembled control plane; ``flowserver`` is ``None`` for schemes
    without one."""

    loop: EventLoop
    network: FlowNetwork
    routing: RoutingTable
    controller: Controller
    flowserver: Optional[Flowserver] = None

    def close(self) -> None:
        """Stop the Flowserver's polling (idempotent)."""
        if self.flowserver is not None:
            self.flowserver.close()


def build_control_plane(
    topology: Topology,
    *,
    flowserver: bool = True,
    config: Optional[FlowserverConfig] = None,
) -> ControlPlane:
    """Build the control plane over ``topology``; ``flowserver`` says
    whether the scheme has one."""
    loop = EventLoop()
    network = FlowNetwork(loop, topology)
    routing = RoutingTable(topology)
    controller = Controller(network)
    plane = ControlPlane(loop, network, routing, controller)
    if flowserver:
        plane.flowserver = Flowserver(controller, routing, config)
    return plane
