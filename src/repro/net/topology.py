"""Network topologies.

:class:`Topology` is a generic directed-link graph over hosts and switches.
:func:`three_tier` builds the canonical oversubscribed 3-tier tree used
throughout the paper's evaluation (Fig. 3a): hosts in racks, racks grouped
into pods each served by multiple aggregation switches, pods joined by core
switches.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.net.links import Link, LinkDirection


class Tier(enum.Enum):
    """Switch tier in a multi-tier tree."""

    EDGE = "edge"  # a.k.a. rack / top-of-rack switch
    AGGREGATION = "aggregation"
    CORE = "core"


@dataclass(frozen=True)
class Host:
    """A server attached to an edge switch."""

    host_id: str
    rack: str
    pod: str


@dataclass(frozen=True)
class SwitchNode:
    """A switch position in the topology graph (state lives in repro.net.switch)."""

    switch_id: str
    tier: Tier
    pod: Optional[str] = None  # None for core switches


@dataclass
class Topology:
    """A directed-link network graph.

    Hosts and switches are vertices; every cable contributes two
    :class:`~repro.net.links.Link` objects (one per direction).  The class is
    purely structural — dynamic state (flow registries, counters) lives on
    the link objects and in :class:`~repro.net.simulator.FlowNetwork`.

    The fault-domain scopes that replica placement and client placement
    draw from (a rack, a pod minus one rack, everything outside a pod) are
    indexed as sorted host-id tuples, each built on first use and cached
    until the next :meth:`add_host`.
    """

    hosts: Dict[str, Host] = field(default_factory=dict)
    switches: Dict[str, SwitchNode] = field(default_factory=dict)
    links: Dict[str, Link] = field(default_factory=dict)
    # adjacency: node id -> list of outgoing link ids
    adjacency: Dict[str, List[str]] = field(default_factory=dict)
    # rack / pod id -> its hosts in insertion order, filled by add_host
    _rack_hosts: Dict[str, List[Host]] = field(
        default_factory=dict, init=False, repr=False
    )
    _pod_hosts: Dict[str, List[Host]] = field(
        default_factory=dict, init=False, repr=False
    )
    # placement scope -> its sorted host ids, built on first use; add_host
    # drops it
    _scope_ids: Dict[Tuple[str, ...], Tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def add_host(self, host: Host) -> None:
        if host.host_id in self.hosts or host.host_id in self.switches:
            raise ValueError(f"duplicate node id {host.host_id!r}")
        self.hosts[host.host_id] = host
        self.adjacency.setdefault(host.host_id, [])
        self._rack_hosts.setdefault(host.rack, []).append(host)
        self._pod_hosts.setdefault(host.pod, []).append(host)
        self._scope_ids.clear()

    def add_switch(self, switch: SwitchNode) -> None:
        if switch.switch_id in self.hosts or switch.switch_id in self.switches:
            raise ValueError(f"duplicate node id {switch.switch_id!r}")
        self.switches[switch.switch_id] = switch
        self.adjacency.setdefault(switch.switch_id, [])

    def add_cable(
        self,
        a: str,
        b: str,
        capacity_bps: float,
        a_to_b_direction: LinkDirection = LinkDirection.FLAT,
    ) -> Tuple[Link, Link]:
        """Add a full-duplex cable between nodes ``a`` and ``b``.

        Returns the two directed links ``(a->b, b->a)``.  The reverse link's
        direction label is the opposite of ``a_to_b_direction``.
        """
        for node in (a, b):
            if node not in self.hosts and node not in self.switches:
                raise ValueError(f"unknown node {node!r}")
        reverse = {
            LinkDirection.UP: LinkDirection.DOWN,
            LinkDirection.DOWN: LinkDirection.UP,
            LinkDirection.FLAT: LinkDirection.FLAT,
        }[a_to_b_direction]
        fwd = Link(f"{a}->{b}", a, b, capacity_bps, a_to_b_direction)
        bwd = Link(f"{b}->{a}", b, a, capacity_bps, reverse)
        for link in (fwd, bwd):
            if link.link_id in self.links:
                raise ValueError(f"duplicate link {link.link_id!r}")
            self.links[link.link_id] = link
            self.adjacency[link.src].append(link.link_id)
        return fwd, bwd

    def link_between(self, src: str, dst: str) -> Link:
        """Return the directed link from ``src`` to ``dst``."""
        try:
            return self.links[f"{src}->{dst}"]
        except KeyError:
            raise KeyError(f"no link {src!r} -> {dst!r}") from None

    def neighbors(self, node: str) -> List[str]:
        """Node ids reachable over one outgoing link."""
        return [self.links[lid].dst for lid in self.adjacency.get(node, [])]

    def hosts_in_rack(self, rack: str) -> List[Host]:
        """Hosts attached to edge switch ``rack``, in insertion order."""
        return list(self._rack_hosts.get(rack, ()))

    def hosts_in_pod(self, pod: str) -> List[Host]:
        """Hosts of ``pod``, in insertion order."""
        return list(self._pod_hosts.get(pod, ()))

    def rack_host_ids(self, rack: str) -> Tuple[str, ...]:
        """Sorted ids of the hosts on ``rack``."""
        return self._scope(
            ("rack", rack), (h.host_id for h in self._rack_hosts.get(rack, ()))
        )

    def pod_host_ids_off_rack(self, pod: str, rack: str) -> Tuple[str, ...]:
        """Sorted ids of the hosts of ``pod`` that are not on ``rack``."""
        return self._scope(
            ("pod-rack", pod, rack),
            (h.host_id for h in self._pod_hosts.get(pod, ()) if h.rack != rack),
        )

    def host_ids_off_pod(self, pod: str) -> Tuple[str, ...]:
        """Sorted ids of every host outside ``pod``."""
        return self._scope(
            ("off-pod", pod),
            (
                h.host_id
                for other, hosts in self._pod_hosts.items()
                if other != pod
                for h in hosts
            ),
        )

    def _scope(self, key: Tuple[str, ...], ids: Iterable[str]) -> Tuple[str, ...]:
        cached = self._scope_ids.get(key)
        if cached is None:
            cached = self._scope_ids[key] = tuple(sorted(ids))
        return cached

    def racks(self) -> List[str]:
        return sorted(self._rack_hosts)

    def pods(self) -> List[str]:
        return sorted(self._pod_hosts)

    def edge_switch_of(self, host_id: str) -> str:
        """The edge switch a host hangs off (its rack switch)."""
        host = self.hosts[host_id]
        return host.rack

    def switches_in_tier(self, tier: Tier) -> List[SwitchNode]:
        return sorted(
            (s for s in self.switches.values() if s.tier == tier),
            key=lambda s: s.switch_id,
        )

    def to_networkx(self) -> Any:
        """Export the structure as an ``nx.DiGraph`` (debugging and tests).

        Nothing in the runtime calls this, and the import sits here so that
        importing :mod:`repro` does not load the library.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for host_id in self.hosts:
            graph.add_node(host_id, kind="host")
        for switch_id in self.switches:
            graph.add_node(switch_id, kind="switch")
        for link in self.links.values():
            graph.add_edge(link.src, link.dst, link_id=link.link_id)
        return graph

    def network_distance(self, a: str, b: str) -> int:
        """HDFS-style distance: 0 same host, 2 same rack, 4 same pod, 6 otherwise."""
        if a == b:
            return 0
        host_a, host_b = self.hosts[a], self.hosts[b]
        if host_a.rack == host_b.rack:
            return 2
        if host_a.pod == host_b.pod:
            return 4
        return 6


def three_tier(
    pods: int = 4,
    racks_per_pod: int = 4,
    hosts_per_rack: int = 4,
    aggs_per_pod: int = 2,
    cores: int = 2,
    edge_bps: float = 1e9,
    oversubscription: float = 8.0,
    rack_agg_oversubscription: Optional[float] = None,
) -> Topology:
    """Build the paper's 3-tier evaluation topology (Fig. 3a).

    The default parameters reproduce the testbed: 64 hosts in 4 pods, each
    pod holding 4 racks served by 2 aggregation switches, all pods joined by
    2 core switches, 1 Gbps edge links, and 8:1 core-to-rack
    oversubscription.

    Oversubscription is split across the two upper tiers.  With total ratio
    ``s`` and rack→aggregation ratio ``s1``, the aggregation→core tier gets
    ``s / s1``.  By default ``s1 = sqrt(s / 2)``, which keeps the canonical
    8:1 testbed at the (2, 4) split and scales *both* tiers as the total
    ratio grows — §6.1 varies "the higher tier links capacity", plural.
    Uplink capacities are then::

        rack uplink  (per agg)  = hosts_per_rack * edge_bps / (s1 * aggs_per_pod)
        agg uplink   (per core) = incoming_agg_capacity / (s2 * cores)

    Parameters
    ----------
    oversubscription:
        Total core-to-rack oversubscription ratio (8, 16 or 24 in Fig. 7).
    rack_agg_oversubscription:
        Ratio attributed to the rack→aggregation tier; defaults to
        ``sqrt(oversubscription / 2)`` clamped to at least 1.
    """
    if pods < 1 or racks_per_pod < 1 or hosts_per_rack < 1:
        raise ValueError("pods, racks_per_pod and hosts_per_rack must be >= 1")
    if aggs_per_pod < 1 or cores < 1:
        raise ValueError("aggs_per_pod and cores must be >= 1")
    if oversubscription < 1:
        raise ValueError(f"oversubscription must be >= 1, got {oversubscription}")

    s1 = rack_agg_oversubscription
    if s1 is None:
        s1 = max(1.0, math.sqrt(oversubscription / 2.0))
    s2 = oversubscription / s1
    if s1 < 1 or s2 < 1:
        raise ValueError(
            f"invalid oversubscription split: rack-agg {s1}, agg-core {s2}"
        )

    topo = Topology()

    core_ids = [f"core{c}" for c in range(cores)]
    for core_id in core_ids:
        topo.add_switch(SwitchNode(core_id, Tier.CORE))

    rack_uplink_bps = hosts_per_rack * edge_bps / (s1 * aggs_per_pod)
    agg_in_bps = racks_per_pod * rack_uplink_bps
    agg_uplink_bps = agg_in_bps / (s2 * cores)

    for p in range(pods):
        pod = f"pod{p}"
        agg_ids = [f"{pod}-agg{a}" for a in range(aggs_per_pod)]
        for agg_id in agg_ids:
            topo.add_switch(SwitchNode(agg_id, Tier.AGGREGATION, pod=pod))
            for core_id in core_ids:
                topo.add_cable(agg_id, core_id, agg_uplink_bps, LinkDirection.UP)
        for r in range(racks_per_pod):
            rack = f"{pod}-rack{r}"
            topo.add_switch(SwitchNode(rack, Tier.EDGE, pod=pod))
            for agg_id in agg_ids:
                topo.add_cable(rack, agg_id, rack_uplink_bps, LinkDirection.UP)
            for h in range(hosts_per_rack):
                host_id = f"{rack}-h{h}"
                topo.add_host(Host(host_id, rack=rack, pod=pod))
                topo.add_cable(host_id, rack, edge_bps, LinkDirection.UP)
    return topo


def leaf_spine(
    leaves: int = 8,
    spines: int = 4,
    hosts_per_leaf: int = 8,
    edge_bps: float = 1e9,
    oversubscription: float = 2.0,
) -> Topology:
    """Build a 2-tier leaf-spine (folded Clos) topology.

    The modern alternative to the paper's 3-tier tree: every leaf (rack)
    switch connects to every spine, giving ``spines`` equal-cost 4-hop
    paths between hosts in different racks.  Mayflower's selection logic
    is topology-agnostic (it only needs :class:`~repro.net.routing.
    RoutingTable`), so this builder demonstrates the system beyond the
    evaluation testbed.

    ``oversubscription`` is the ratio of host capacity into a leaf to the
    leaf's total uplink capacity (1.0 = non-blocking).
    """
    if leaves < 1 or spines < 1 or hosts_per_leaf < 1:
        raise ValueError("leaves, spines and hosts_per_leaf must be >= 1")
    if oversubscription < 1:
        raise ValueError(f"oversubscription must be >= 1, got {oversubscription}")

    topo = Topology()
    spine_ids = [f"spine{s}" for s in range(spines)]
    for spine_id in spine_ids:
        topo.add_switch(SwitchNode(spine_id, Tier.CORE))

    uplink_bps = hosts_per_leaf * edge_bps / (oversubscription * spines)
    for leaf_index in range(leaves):
        # each leaf is its own "pod": there is no aggregation tier
        leaf = f"leaf{leaf_index}"
        topo.add_switch(SwitchNode(leaf, Tier.EDGE, pod=leaf))
        for spine_id in spine_ids:
            topo.add_cable(leaf, spine_id, uplink_bps, LinkDirection.UP)
        for h in range(hosts_per_leaf):
            host_id = f"{leaf}-h{h}"
            topo.add_host(Host(host_id, rack=leaf, pod=leaf))
            topo.add_cable(host_id, leaf, edge_bps, LinkDirection.UP)
    return topo
