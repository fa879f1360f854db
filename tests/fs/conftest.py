"""Shared fixtures for filesystem tests.

``mini_cluster`` wires a small but complete stack — network, controller,
fabric, dataplane, nameserver with its lease service, dataservers — on an
8-host topology with real payload storage, so tests can verify actual
bytes end to end.
"""

from dataclasses import dataclass
from typing import Dict

import pytest

from repro.cluster.dataplane import SimulatedDataPlane
from repro.fs.dataserver import Dataserver
from repro.fs.leases import LEASE_SERVICE, LeaseManager
from repro.fs.nameserver import Nameserver
from repro.fs.placement import PaperEvalPlacement
from repro.net import FlowNetwork, RoutingTable, three_tier
from repro.rpc import RpcFabric
from repro.sdn import Controller
from repro.sim import EventLoop, Process
from repro.sim.randomness import RandomStreams


@dataclass
class MiniCluster:
    loop: EventLoop
    network: FlowNetwork
    routing: RoutingTable
    controller: Controller
    fabric: RpcFabric
    dataplane: SimulatedDataPlane
    nameserver: Nameserver
    nameserver_host: str
    dataservers: Dict[str, Dataserver]

    def run(self, generator, name=""):
        proc = Process(self.loop, generator, name=name)
        self.loop.run()
        if proc.exception is not None:
            raise proc.exception
        return proc.result


@pytest.fixture()
def mini_cluster():
    topo = three_tier(pods=2, racks_per_pod=2, hosts_per_rack=2)
    loop = EventLoop()
    network = FlowNetwork(loop, topo)
    routing = RoutingTable(topo)
    controller = Controller(network)
    fabric = RpcFabric(loop, latency=0.0005)
    dataplane = SimulatedDataPlane(loop, controller, routing)
    streams = RandomStreams(11)
    nameserver_host = sorted(topo.hosts)[0]
    nameserver = Nameserver(
        PaperEvalPlacement(topo, streams.stream("placement")),
        rng=streams.stream("ids"),
    )
    nameserver.lease_manager = LeaseManager(loop)
    fabric.register(nameserver_host, "nameserver", nameserver)
    fabric.register(nameserver_host, LEASE_SERVICE, nameserver.lease_manager)
    dataservers = {}
    for host in sorted(topo.hosts):
        ds = Dataserver(
            host,
            loop,
            fabric,
            dataplane,
            nameserver_endpoint=nameserver_host,
            store_payload=True,
        )
        dataservers[host] = ds
        fabric.register(host, "dataserver", ds)
    return MiniCluster(
        loop=loop,
        network=network,
        routing=routing,
        controller=controller,
        fabric=fabric,
        dataplane=dataplane,
        nameserver=nameserver,
        nameserver_host=nameserver_host,
        dataservers=dataservers,
    )
