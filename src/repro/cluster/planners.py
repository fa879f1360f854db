"""Read and write planners: the client-side strategy objects of the cluster.

* :class:`FlowserverReadPlanner` — the Mayflower path: an RPC to the
  Flowserver service (living at the controller's virtual endpoint)
  returns replica/path/size assignments, including split reads;
* :class:`SelectorReadPlanner` — baseline path: replica chosen by a local
  :class:`~repro.baselines.selectors.ReplicaSelector`; the path is either
  left to ECMP (``flowserver_endpoint=None``) or asked of the Flowserver
  in path-only mode (the "HDFS-Mayflower" configuration);
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


class FlowserverReadPlanner(ReadPlanner):
    """Ask the Flowserver (inside the SDN controller) to plan the read."""

    def __init__(self, fabric, flowserver_endpoint: str = "@controller"):
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
        result = yield from self._fabric.invoke(
            client_host,
            self._endpoint,
            "flowserver",
            "select",
            client_host,
            list(replicas),
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


class SelectorReadPlanner(ReadPlanner):
    """Baseline: local replica selection, ECMP or Flowserver path choice."""

    def __init__(
        self,
        selector: ReplicaSelector,
        fabric=None,
        flowserver_endpoint: Optional[str] = None,
    ):
        self._selector = selector
        self._fabric = fabric
        self._endpoint = flowserver_endpoint
        if flowserver_endpoint is not None and fabric is None:
            raise ValueError("flowserver path planning needs the RPC fabric")

    def plan(
        self,
        client_host: str,
        metadata: FileMetadata,
        replicas: Sequence[str],
        size_bytes: int,
        job_id: Optional[str] = None,
    ) -> Generator:
        replica = self._selector.select_replica(client_host, list(replicas))
        if replica == client_host or self._endpoint is None:
            # Local read, or remote read routed by ECMP at transfer time.
            return [PlannedTransfer(replica=replica, size_bytes=size_bytes)]
            yield  # pragma: no cover - keeps this a generator
        result = yield from self._fabric.invoke(
            client_host,
            self._endpoint,
            "flowserver",
            "select_path_only",
            client_host,
            replica,
            size_bytes * 8.0,
            job_id,
        )
        (assignment,) = result.assignments
        return [
            PlannedTransfer(
                replica=assignment.replica,
                size_bytes=size_bytes,
                flow_id=assignment.flow_id,
                path=assignment.path,
            )
        ]


class FlowserverFanoutPlanner(WriteFanoutPlanner):
    """Mayflower write path: the Flowserver picks the fan-out shape.

    One RPC per append returns a
    :class:`~repro.core.fanout.FanoutPlan` priced against the
    controller's live :class:`NetworkView`; the Flowserver itself falls
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
