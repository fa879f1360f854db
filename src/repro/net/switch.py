"""Switch objects exposing OpenFlow-style statistics.

A :class:`Switch` wraps a topology switch node and answers the one query
the SDN controller issues (§3.3.3): **flow stats**, cumulative bytes per
flow, restricted (as in the paper) to flows *originating from dataservers
attached to this edge switch*.  Eq. 2 reads nothing else, so port counters
are not modelled.

Counters are ground truth pulled from the flow simulator at query time; a
rack whose access links carry no flow answers at once.  The controller sees
byte counts, never rates, and infers bandwidth by differencing polls.

Switches observe, never mutate: they read the
:class:`~repro.net.simulator.FlowNetwork`'s flows and counters, and
change nothing.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from repro.net.links import Link
from repro.net.simulator import FlowNetwork
from repro.net.topology import SwitchNode


class FlowStat(NamedTuple):
    """Cumulative counter for one flow observed at a switch."""

    flow_id: str
    src: str
    dst: str
    bytes_sent: float
    size_bits: float
    remaining_bits: float


class Switch:
    """Stats-serving view over one switch in the simulated network."""

    def __init__(self, node: SwitchNode, network: FlowNetwork):
        self._node = node
        self._network = network
        self._topo = network.topology

    @property
    def switch_id(self) -> str:
        return self._node.switch_id

    def attached_hosts(self) -> List[str]:
        """Hosts hanging off this switch (non-empty only for edge switches)."""
        return list(self._hosts)

    # A rack never changes, so its hosts are listed once, on first use.
    @cached_property
    def _hosts(self) -> Tuple[str, ...]:
        return tuple(sorted(
            h.host_id for h in self._topo.hosts_in_rack(self._node.switch_id)
        ))

    @cached_property
    def _host_set(self) -> FrozenSet[str]:
        return frozenset(self._hosts)

    # A flow sourced at a host is registered on the link it leaves that
    # host by, so these links name every local flow without a scan of the
    # whole network.
    @cached_property
    def _access_links(self) -> Tuple[Link, ...]:
        topo = self._topo
        return tuple(
            topo.links[link_id]
            for host_id in self._hosts
            for link_id in topo.adjacency[host_id]
        )

    def flow_stats(self) -> List[FlowStat]:
        """Counters for flows originating at hosts attached to this switch.

        Mirrors §4: "flow stats are collected for only those flows that
        originate from dataservers attached to the edge switch being
        queried."
        """
        self._network.snapshot_progress()
        busy = [link.flows for link in self._access_links if link.flows]
        if not busy:  # most racks source nothing at a given instant
            return []
        local_hosts = self._host_set
        active = self._network.active_flows
        stats = []
        for flow_id in sorted(set().union(*busy)):
            flow = active.get(flow_id)
            if flow is not None and flow.src in local_hosts:
                stats.append(FlowStat(
                    flow.flow_id, flow.src, flow.dst,
                    flow.bytes_sent, flow.size_bits, flow.remaining_bits,
                ))
        return stats


def build_switches(network: FlowNetwork) -> Dict[str, Switch]:
    """Instantiate a :class:`Switch` for every switch node in the topology."""
    return {
        node.switch_id: Switch(node, network)
        for node in network.topology.switches.values()
    }
