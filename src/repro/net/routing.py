"""Shortest-path enumeration between hosts.

Mayflower restricts candidate paths to the *equal-length shortest* paths
between two endpoints (§4.2), which in a 3-tier tree have 2, 4 or 6 switch
hops.  :class:`RoutingTable` finds them with a breadth-first search from
both ends over a switch-only view of :class:`Topology` and caches them;
paths are immutable tuples of directed link ids, ready for both the flow
simulator and the Flowserver's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Set, Tuple

from repro.net.topology import Topology


@dataclass(frozen=True)
class Path:
    """An ordered sequence of directed links from ``src`` host to ``dst`` host."""

    src: str
    dst: str
    link_ids: Tuple[str, ...]


#: A switch-level route: (first switch, the link ids between switches,
#: last switch).  The ids are empty when the first switch is the last.
SwitchRoute = Tuple[str, Tuple[str, ...], str]


class RoutingTable:
    """Enumerates all equal-cost shortest paths between host pairs.

    Hosts never forward, so a path is ``src -> switch ... switch -> dst``
    and the search runs over the switch-only graph, built on first use:
    a breadth-first search from both ends at once, forward from the
    switches ``src`` hangs off and backward from the switches that deliver
    to ``dst``, that stops at the first level where the two sides meet.
    The first pair between some (source switches, delivering switches)
    keeps its routes, and the other pairs between them swap in their own
    access links: the hosts of one rack share one search.  Paths come out
    sorted by their node-name tuples — Eq. 2 tie-breaks and ``EcmpHasher``
    depend on that order.  Results are cached per (src, dst): ~4k entries
    at 64 hosts.
    """

    def __init__(self, topology: Topology):
        self._topo = topology
        self._cache: Dict[Tuple[str, str], List[Path]] = {}
        # (source switches, delivering switches) -> the sorted routes of
        # the first pair between them (the tuples that pair's paths hold)
        self._routes_by_switches: Dict[
            Tuple[Tuple[str, ...], Tuple[str, ...]], List[Tuple[str, ...]]
        ] = {}

    def paths(self, src: str, dst: str) -> List[Path]:
        """All shortest paths from host ``src`` to host ``dst``.

        Raises
        ------
        ValueError
            If ``src == dst`` (a local read involves no network path), if
            either endpoint is not a host, or if the hosts are disconnected.
        """
        cached = self._cache.get((src, dst))
        if cached is not None:  # only validated pairs are ever stored
            return cached
        if src == dst:
            raise ValueError(f"no network path from a host to itself ({src!r})")
        for node in (src, dst):
            if node not in self._topo.hosts:
                raise ValueError(f"{node!r} is not a host")
        routes = self._shortest_routes(src, dst)
        if not routes:
            raise ValueError(f"hosts {src!r} and {dst!r} are disconnected")
        paths = [Path(src=src, dst=dst, link_ids=route) for route in routes]
        self._cache[(src, dst)] = paths
        return paths

    def _shortest_routes(self, src: str, dst: str) -> List[Tuple[str, ...]]:
        """Every minimum-hop link-id sequence ``src -> dst``, sorted."""
        topo = self._topo
        switches = topo.switches
        # switch -> the access link into it from ``src`` / out of it to
        # ``dst`` (cables are full-duplex, so the switches that deliver to
        # ``dst`` are the ones ``dst`` has a link to)
        first: Dict[str, str] = {}
        for link_id in topo.adjacency[src]:
            node = topo.links[link_id].dst
            if node == dst:  # a host-to-host cable beats any switched route
                return [(link_id,)]
            if node in switches:
                first[node] = link_id
        last = {
            switch: topo.link_between(switch, dst).link_id
            for switch in topo.neighbors(dst)
            if switch in switches
        }
        key = (tuple(first), tuple(last))
        known = self._routes_by_switches.get(key)
        if known is None:
            routes = [
                (first[head],) + links + (last[tail],)
                for head, links, tail in self._search(first, last)
            ]
            self._routes_by_switches[key] = routes
            return routes
        # Another pair between the same switches: swap in its access links.
        by_id = topo.links
        return [
            (first[by_id[route[0]].dst],) + route[1:-1] + (last[by_id[route[-1]].src],)
            for route in known
        ]

    def _search(
        self, sources: Iterable[str], targets: Iterable[str]
    ) -> List[SwitchRoute]:
        """Every minimum-hop route from a switch in ``sources`` to one in
        ``targets``, sorted.

        Level by level, the smaller frontier takes one step: forward over
        :attr:`_fabric` or backward over :attr:`_fabric_in`.  The first
        level that reaches a switch the other side has seen holds every
        shortest route, each through exactly one meeting switch, so the
        routes are the forward partial routes into each meeting switch
        times the backward ones out of it, walked back through the levels.
        Searching from all sources at once keeps only the nearest of them,
        so a multi-homed host uses whichever access link gives the fewest
        hops.  Sorting by (first switch, link ids) gives the order of the
        full host-to-host link-id tuples: those start ``"src->" + first``.
        """
        fabric, fabric_in = self._fabric, self._fabric_in
        # the switches 0, 1, 2, ... hops after a source / before a target
        ahead: List[Set[str]] = [set(sources)]
        behind: List[Set[str]] = [set(targets)]
        seen_ahead, seen_behind = set(ahead[0]), set(behind[0])
        meet = seen_ahead & seen_behind
        while not meet:
            if not ahead[-1] or not behind[-1]:
                return []
            if len(ahead[-1]) <= len(behind[-1]):
                meet = _step(ahead, fabric, seen_ahead) & seen_behind
            else:
                meet = _step(behind, fabric_in, seen_behind) & seen_ahead
        routes: List[SwitchRoute] = []
        for middle in meet:
            # Grow each partial route (the switch it ends at, its link ids)
            # away from the meeting switch, one level per step.
            heads: List[Tuple[str, Tuple[str, ...]]] = [(middle, ())]
            for level in ahead[-2::-1]:
                heads = [
                    (prev, (fabric_in[switch][prev],) + links)
                    for switch, links in heads
                    for prev in fabric_in[switch].keys() & level
                ]
            tails: List[Tuple[str, Tuple[str, ...]]] = [(middle, ())]
            for level in behind[-2::-1]:
                tails = [
                    (nxt, links + (fabric[switch][nxt],))
                    for switch, links in tails
                    for nxt in fabric[switch].keys() & level
                ]
            routes += [
                (head, head_links + tail_links, tail)
                for head, head_links in heads
                for tail, tail_links in tails
            ]
        routes.sort()
        return routes

    # Built on the first search, not in __init__: a table that is never
    # asked for a route costs nothing.
    @cached_property
    def _fabric(self) -> Dict[str, Dict[str, str]]:
        """Each switch's link ids to other switches, by the switch they enter."""
        topo = self._topo
        fabric: Dict[str, Dict[str, str]] = {}
        for switch in topo.switches:
            links = (topo.links[link_id] for link_id in topo.adjacency[switch])
            fabric[switch] = {
                link.dst: link.link_id for link in links if link.dst in topo.switches
            }
        return fabric

    @cached_property
    def _fabric_in(self) -> Dict[str, Dict[str, str]]:
        """Each switch's link ids from other switches, by the switch they leave."""
        incoming: Dict[str, Dict[str, str]] = {switch: {} for switch in self._fabric}
        for switch, links in self._fabric.items():
            for nxt, link_id in links.items():
                incoming[nxt][switch] = link_id
        return incoming

    def paths_from_replicas(self, replicas: List[str], client: str) -> List[Path]:
        """Candidate (replica -> client) paths for a read request.

        Replicas co-located with the client contribute no network path (the
        read is local); the caller is expected to short-circuit that case.
        """
        candidates: List[Path] = []
        for replica in replicas:
            if replica == client:
                continue
            candidates.extend(self.paths(replica, client))
        return candidates


def _step(
    levels: List[Set[str]], adjacency: Dict[str, Dict[str, str]], seen: Set[str]
) -> Set[str]:
    """Append to ``levels`` the switches first reached from its last level,
    add them to ``seen`` and return them."""
    reached: Set[str] = set()
    for switch in levels[-1]:
        reached.update(adjacency[switch])
    reached -= seen
    seen |= reached
    levels.append(reached)
    return reached
