"""The §6.2 scheme table: (replica selection) × (path selection).

A *scheme* turns a read request — client, replica set, size — into
concrete flow assignments.  :data:`SCHEMES` names each pairing of a
replica policy (the Flowserver jointly with the path, §4; static nearest;
Sinbad-R from end-host stats) with a path policy (the Flowserver's cost
model, or ECMP hashing).  ``hdfs-*`` are the ``nearest-*`` rows under the
labels Fig. 8 prints (HDFS's rack-aware selection *is* nearest
selection).  ``nearest-hedera`` is an extension baseline: the
"datacenter-wide dynamic network flow scheduler" of §1, which cannot
exploit replica choice; the runner attaches its rescheduler.

Both runners read their wiring from the table: the flow-level runner
(:mod:`repro.experiments.runner`) through :class:`Scheme`, the cluster
(:mod:`repro.cluster`) through its RPC read planner.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.baselines.selectors import ReplicaSelector
from repro.core.flowserver import Assignment, Flowserver
from repro.net.ecmp import EcmpHasher
from repro.net.routing import RoutingTable


class SchemeSpec(NamedTuple):
    """One row of :data:`SCHEMES`."""

    #: ``"flowserver"`` (joint with the path), ``"nearest"`` or ``"sinbad"``.
    replica: str
    #: ``"flowserver"`` or ``"ecmp"``.
    path: str
    #: Whether a Hedera-style rescheduler re-routes elephants.
    hedera: bool = False

    @property
    def flowserver(self) -> bool:
        """Whether the scheme needs a Flowserver."""
        return "flowserver" in (self.replica, self.path)


#: Every scheme name, in the paper's bar order.
SCHEMES: Dict[str, SchemeSpec] = {
    "mayflower": SchemeSpec("flowserver", "flowserver"),
    "sinbad-mayflower": SchemeSpec("sinbad", "flowserver"),
    "sinbad-ecmp": SchemeSpec("sinbad", "ecmp"),
    "nearest-mayflower": SchemeSpec("nearest", "flowserver"),
    "nearest-ecmp": SchemeSpec("nearest", "ecmp"),
    "nearest-hedera": SchemeSpec("nearest", "ecmp", hedera=True),
    "hdfs-mayflower": SchemeSpec("nearest", "flowserver"),
    "hdfs-ecmp": SchemeSpec("nearest", "ecmp"),
}


def scheme_spec(name: str, monitor: bool = True, hedera: bool = True) -> SchemeSpec:
    """The row for ``name``, for a runner that can (or cannot) attach an
    end-host ``monitor`` (Sinbad-R's input) and a ``hedera`` rescheduler.

    Raises ValueError for an unknown name or a row the runner cannot host.
    """
    spec = SCHEMES.get(name)
    if spec is None:
        raise ValueError(f"unknown scheme {name!r}; expected one of {tuple(SCHEMES)}")
    if spec.replica == "sinbad" and not monitor:
        raise ValueError(f"cannot host scheme {name!r}: no end-host monitor")
    if spec.hedera and not hedera:
        raise ValueError(f"cannot host scheme {name!r}: no Hedera rescheduler")
    return spec


class Scheme:
    """A scheme's flow assignment for one read job, in-process.

    ``selector`` picks the replica (``None``: the Flowserver picks
    replica and path jointly); ``flowserver`` picks the path (``None``:
    ECMP hashing, which needs a selector).  A pre-selected replica limits
    the Flowserver to "the pre-selected source and destination pairs"
    (§6.2).
    """

    def __init__(
        self,
        name: str,
        selector: Optional[ReplicaSelector],
        flowserver: Optional[Flowserver],
        routing: RoutingTable,
        ecmp_salt: int = 0,
    ):
        self.name = name
        self._selector = selector
        self._flowserver = flowserver
        self._routing = routing
        self._hasher = EcmpHasher(salt=ecmp_salt)
        self._seq = itertools.count()

    def assign(
        self,
        client: str,
        replicas: Sequence[str],
        size_bits: float,
        job_id: Optional[str] = None,
    ) -> List[Assignment]:
        """The flows to start; empty for a data-local read."""
        candidates = list(replicas)
        if self._selector is not None:
            candidates = [self._selector.select_replica(client, candidates)]
            if candidates[0] == client:
                return []
        if self._flowserver is not None:
            result = self._flowserver.select(client, candidates, size_bits, job_id=job_id)
            return [] if result.is_local else list(result.assignments)
        (replica,) = candidates
        seq = next(self._seq)
        path = self._hasher.pick_for_flow(self._routing.paths(replica, client), seq)
        return [Assignment(f"{self.name}-{seq}", replica, path, size_bits, float("nan"))]
