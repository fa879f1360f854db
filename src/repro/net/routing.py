"""Shortest-path enumeration between hosts.

Mayflower restricts candidate paths to the *equal-length shortest* paths
between two endpoints (§4.2), which in a 3-tier tree have 2, 4 or 6 switch
hops.  :class:`RoutingTable` enumerates them over a switch-only view of
:class:`Topology` and caches them; paths are immutable tuples of directed
link ids, ready for both the flow simulator and the Flowserver's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from repro.net.links import Link
from repro.net.topology import Topology


@dataclass(frozen=True)
class Path:
    """An ordered sequence of directed links from ``src`` host to ``dst`` host."""

    src: str
    dst: str
    link_ids: Tuple[str, ...]

    @property
    def hop_count(self) -> int:
        """Number of links traversed."""
        return len(self.link_ids)

    def __iter__(self):
        return iter(self.link_ids)

    def __len__(self) -> int:
        return len(self.link_ids)


class RoutingTable:
    """Enumerates all equal-cost shortest paths between host pairs.

    Hosts never forward, so a path is ``src -> switch ... switch -> dst``
    and the search runs over the switch-only graph, built on first use:
    one BFS predecessor DAG per *source switch* (cached), walked back from
    the switches that deliver to ``dst``.  Paths come out sorted by their
    node-name tuples — Eq. 2 tie-breaks and ``EcmpHasher`` depend on that
    order.  Results are cached per (src, dst): ~4k entries at 64 hosts.
    """

    def __init__(self, topology: Topology):
        self._topo = topology
        self._cache: Dict[Tuple[str, str], List[Path]] = {}
        # source switch -> (hops to each reachable switch, the links that
        # enter each switch on a shortest path from the source)
        self._dags: Dict[str, Tuple[Dict[str, int], Dict[str, List[Link]]]] = {}

    @property
    def topology(self) -> Topology:
        return self._topo

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
        # The routes of one pair are equally long and agree up to their
        # first difference, where both links leave the same node ``u``: so
        # comparing ``"u->v1"`` with ``"u->v2"`` compares ``v1`` with
        # ``v2``, and sorting link-id tuples gives the node-name order.
        paths = [Path(src=src, dst=dst, link_ids=route) for route in sorted(routes)]
        self._cache[(src, dst)] = paths
        return paths

    def _shortest_routes(self, src: str, dst: str) -> List[Tuple[str, ...]]:
        """Every minimum-hop link-id sequence ``src -> dst``, in no set order."""
        topo = self._topo
        egress = [topo.links[link_id] for link_id in topo.adjacency[src]]
        for link in egress:
            if link.dst == dst:  # a host-to-host cable beats any switched route
                return [(link.link_id,)]
        # Cables are full-duplex, so the switches that deliver to ``dst``
        # are the ones ``dst`` has a link to.
        ingress = [
            topo.link_between(switch, dst)
            for switch in topo.neighbors(dst)
            if switch in topo.switches
        ]
        # (switch hops, access link out of src, access link into dst) for
        # every way of entering and leaving the switch fabric
        ends = []
        for first in egress:
            if first.dst in topo.switches:
                hops = self._dag_from(first.dst)[0]
                ends += [
                    (hops[last.src], first, last)
                    for last in ingress
                    if last.src in hops
                ]
        if not ends:
            return []
        shortest = min(length for length, _, _ in ends)
        routes: List[Tuple[str, ...]] = []
        for length, first, last in ends:
            if length != shortest:
                continue
            # Walk the DAG back from the delivering switch to the source
            # switch, growing each partial route (the node it starts at,
            # its link ids) at its front.
            entering = self._dag_from(first.dst)[1]
            partial = [(last.src, (last.link_id,))]
            for _ in range(length):
                partial = [
                    (link.src, (link.link_id,) + tail)
                    for node, tail in partial
                    for link in entering[node]
                ]
            head = (first.link_id,)
            routes += [head + tail for _, tail in partial]
        return routes

    def _dag_from(
        self, root: str
    ) -> Tuple[Dict[str, int], Dict[str, List[Link]]]:
        """Breadth-first shortest-path DAG over the switches, from ``root``."""
        dag = self._dags.get(root)
        if dag is not None:
            return dag
        fabric = self._fabric
        hops = {root: 0}
        entering: Dict[str, List[Link]] = {root: []}
        frontier = [root]
        depth = 0
        while frontier:
            depth += 1
            reached: List[str] = []
            for node in frontier:
                for link in fabric[node]:
                    seen = hops.get(link.dst)
                    if seen is None:
                        hops[link.dst] = depth
                        entering[link.dst] = [link]
                        reached.append(link.dst)
                    elif seen == depth:
                        entering[link.dst].append(link)
            frontier = reached
        dag = self._dags[root] = (hops, entering)
        return dag

    # Built on the first search, not in __init__: a table that is never
    # asked for a route costs nothing.
    @cached_property
    def _fabric(self) -> Dict[str, List[Link]]:
        """Each switch's links to other switches, in adjacency order."""
        topo = self._topo
        fabric: Dict[str, List[Link]] = {}
        for switch in topo.switches:
            links = (topo.links[link_id] for link_id in topo.adjacency[switch])
            fabric[switch] = [link for link in links if link.dst in topo.switches]
        return fabric

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

    def shortest_hop_count(self, src: str, dst: str) -> int:
        """Length (in links) of the shortest path between two hosts."""
        if src == dst:
            return 0
        return self.paths(src, dst)[0].hop_count
