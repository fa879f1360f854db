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
  chain).
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.baselines.selectors import ReplicaSelector
from repro.fs.chunks import FileMetadata
from repro.fs.client import PlannedTransfer, ReadPlanner, WriteFanoutPlanner


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
