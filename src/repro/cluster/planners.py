"""Read and write planners: the client-side strategy objects of the cluster.

* :class:`SchemeReadPlanner` — a :data:`~repro.baselines.schemes.SCHEMES`
  row's reads: a local :class:`~repro.baselines.selectors.ReplicaSelector`
  or the Flowserver picks the replica, and the Flowserver (over RPC to
  the controller's virtual endpoint) or ECMP picks the path;
* :class:`FlowserverFanoutPlanner` — append fan-out shape: asks the
  Flowserver to pick chain vs. tree per append from live link estimates
  (a client given no fan-out planner relays down the static metadata
  chain);
* :class:`FlowserverWritePlacement` — replica placement: the nameserver
  scores candidates by the Flowserver's live bandwidth estimates.
"""

from __future__ import annotations

import math
from random import Random
from typing import Generator, List, Optional, Sequence

from repro.baselines.selectors import ReplicaSelector
from repro.core.cost import estimate_path_share
from repro.core.flowserver import Flowserver
from repro.fs.chunks import FileMetadata
from repro.fs.client import PlannedTransfer, ReadPlanner, WriteFanoutPlanner
from repro.fs.errors import InvalidRequestError
from repro.fs.placement import PlacementPolicy, spread_pool
from repro.net.routing import RoutingTable
from repro.net.topology import Topology


def _split_bytes(total_bytes: int, fractions: Sequence[float]) -> list:
    """Integer byte split proportional to ``fractions`` summing exactly."""
    sizes = [int(total_bytes * f) for f in fractions]
    sizes[-1] = total_bytes - sum(sizes[:-1])
    return sizes


class SchemeReadPlanner(ReadPlanner):
    """A scheme's read planning over RPC, one class for every cluster row.

    ``selector`` picks the replica locally (``None``: the Flowserver picks
    replica and path jointly, split reads included); the Flowserver at
    ``flowserver_endpoint`` picks the path (``None``: ECMP at transfer
    time).
    """

    def __init__(
        self,
        selector: Optional[ReplicaSelector] = None,
        fabric=None,
        flowserver_endpoint: Optional[str] = None,
    ):
        if flowserver_endpoint is not None and fabric is None:
            raise ValueError("flowserver path planning needs the RPC fabric")
        self._selector = selector
        self._fabric = fabric
        self._endpoint = flowserver_endpoint

    def plan(
        self,
        client_host: str,
        metadata: FileMetadata,
        replicas: Sequence[str],
        size_bytes: int,
        job_id: Optional[str] = None,
    ) -> Generator:
        candidates = list(replicas)
        if self._selector is not None:
            replica = self._selector.select_replica(client_host, candidates)
            if replica == client_host or self._endpoint is None:
                # Local read, or remote read routed by ECMP at transfer time.
                return [PlannedTransfer(replica=replica, size_bytes=size_bytes)]
            candidates = [replica]
        result = yield from self._fabric.invoke(
            client_host,
            self._endpoint,
            "flowserver",
            "select",
            client_host,
            candidates,
            size_bytes * 8.0,
            job_id,
        )
        assignments = result.assignments
        if result.is_local:
            return [PlannedTransfer(replica=client_host, size_bytes=size_bytes)]
        total_bits = sum(a.size_bits for a in assignments)
        sizes = _split_bytes(
            size_bytes, [a.size_bits / total_bits for a in assignments]
        )
        return [
            PlannedTransfer(
                replica=a.replica,
                size_bytes=size,
                flow_id=a.flow_id,
                path=a.path,
            )
            for a, size in zip(assignments, sizes)
        ]


class FlowserverFanoutPlanner(WriteFanoutPlanner):
    """Mayflower write path: the Flowserver picks the fan-out shape.

    One RPC per append returns a
    :class:`~repro.core.fanout.FanoutPlan` priced against the flows the
    Flowserver tracks from its stats polls; the Flowserver itself falls
    back to the static chain when its view is degraded, so this planner
    never has to guess.
    """

    def __init__(self, fabric, flowserver_endpoint: str = "@controller"):
        self._fabric = fabric
        self._endpoint = flowserver_endpoint

    def plan(
        self,
        client_host: str,
        metadata: FileMetadata,
        size_bytes: int,
        job_id: Optional[str] = None,
    ) -> Generator:
        plan = yield from self._fabric.invoke(
            client_host,
            self._endpoint,
            "flowserver",
            "plan_replication_fanout",
            client_host,
            list(metadata.replicas),
            size_bytes * 8.0,
            job_id,
        )
        return plan


class FlowserverWritePlacement(PlacementPolicy):
    """Nameserver placement co-designed with the Flowserver (§3.3's
    future work).  A write is a pipeline of flows (writer → primary →
    secondaries), so each slot goes to the sampled candidate whose best
    shortest path has the highest estimated share against the live flow
    table.  Fault domains match the evaluation placement: primary
    anywhere, second in its pod on another rack, third in another pod.

    Parameters
    ----------
    candidates_per_tier:
        How many eligible hosts to score per replica slot (sampling keeps
        placement O(K · paths) instead of O(hosts · paths), the same trick
        Sinbad uses).
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingTable,
        flowserver: Flowserver,
        rng: Random,
        candidates_per_tier: int = 8,
    ):
        if candidates_per_tier < 1:
            raise ValueError("candidates_per_tier must be >= 1")
        self._topo = topology
        self._routing = routing
        self._flowserver = flowserver
        self._rng = rng
        self.candidates_per_tier = candidates_per_tier
        self._capacities = {
            lid: link.capacity_bps for lid, link in topology.links.items()
        }

    # ------------------------------------------------------------------
    # PlacementPolicy interface
    # ------------------------------------------------------------------

    def place(self, replication: int, writer: Optional[str] = None) -> List[str]:
        if replication < 1:
            raise InvalidRequestError(f"replication must be >= 1, got {replication}")
        hosts = sorted(self._topo.hosts)

        primary_pool = [h for h in hosts if h != writer] or hosts
        primary = self._best_destination(writer, primary_pool)
        chosen = [primary]
        if replication == 1:
            return chosen
        primary_host = self._topo.hosts[primary]

        same_pod_other_rack = [
            h
            for h in self._topo.pod_host_ids_off_rack(
                primary_host.pod, primary_host.rack
            )
            if h != writer
        ]
        if same_pod_other_rack:
            chosen.append(self._best_destination(primary, same_pod_other_rack))
        if replication == 2:
            return chosen[:2]

        other_pod = [
            h for h in self._topo.host_ids_off_pod(primary_host.pod) if h != writer
        ]
        if other_pod:
            chosen.append(self._best_destination(primary, other_pod))

        while len(chosen) < replication:
            pool = spread_pool(self._topo, chosen, writer)
            chosen.append(self._best_destination(primary, pool))
        return chosen[:replication]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _best_destination(self, src: Optional[str], pool: Sequence[str]) -> str:
        """The candidate with the highest estimated write bandwidth from src.

        With no source (unknown writer), candidates are scored by the
        contention on their own edge downlink.
        """
        if not pool:
            raise InvalidRequestError("no eligible host for replica placement")
        sample_size = min(self.candidates_per_tier, len(pool))
        candidates = self._rng.sample(list(pool), sample_size)
        best_host = None
        best_share = -math.inf
        for candidate in sorted(candidates):
            share = self._estimated_share(src, candidate)
            if share > best_share:
                best_share = share
                best_host = candidate
        assert best_host is not None
        return best_host

    def _estimated_share(self, src: Optional[str], dst: str) -> float:
        state = self._flowserver.state
        cache = self._flowserver.link_cache
        if src is None or src == dst:
            edge = self._topo.edge_switch_of(dst)
            downlink = f"{edge}->{dst}"
            share, _ = estimate_path_share(
                [downlink], self._capacities, state, cache=cache
            )
            return share
        best = 0.0
        for path in self._routing.paths(src, dst):
            share, _ = estimate_path_share(
                path.link_ids, self._capacities, state, cache=cache
            )
            best = max(best, share)
        return best
