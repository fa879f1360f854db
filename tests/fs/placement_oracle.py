"""Scan-based placement references and the fault-domain check.

Each oracle recomputes every fault-domain scope by scanning all of
``topology.hosts`` on every call — the placement code as it stood before
:class:`~repro.net.topology.Topology` indexed its scopes.  Tests drive a
policy and its oracle from equally seeded RNGs and compare the replica
lists and the RNG states they leave behind.

:func:`validate_fault_domains` checks a replica set against §3.1's
constraints; only tests call it.
"""

from __future__ import annotations

from random import Random
from typing import Callable, List, Optional, Sequence

from repro.fs.errors import InvalidRequestError
from repro.net.topology import Topology
from repro.workload.generator import FileSpec, LocalityDistribution


def _choice(rng: Random, items: Sequence[str]) -> str:
    if not items:
        raise InvalidRequestError("no eligible host for replica placement")
    return items[rng.randrange(len(items))]


def paper_eval_place(topo: Topology, rng: Random, replication: int) -> List[str]:
    """:class:`~repro.fs.placement.PaperEvalPlacement`, scanning every host."""
    hosts = sorted(topo.hosts)
    primary = _choice(rng, hosts)
    chosen = [primary]
    if replication == 1:
        return chosen
    primary_host = topo.hosts[primary]

    same_pod_other_rack = sorted(
        h.host_id
        for h in topo.hosts.values()
        if h.pod == primary_host.pod and h.rack != primary_host.rack
    )
    if same_pod_other_rack:
        chosen.append(_choice(rng, same_pod_other_rack))
    if replication == 2:
        return chosen[:2]

    other_pod = sorted(
        h.host_id for h in topo.hosts.values() if h.pod != primary_host.pod
    )
    if other_pod:
        chosen.append(_choice(rng, other_pod))

    while len(chosen) < replication:
        used_racks = {topo.hosts[c].rack for c in chosen}
        remaining = sorted(
            h.host_id
            for h in topo.hosts.values()
            if h.rack not in used_racks and h.host_id not in chosen
        )
        if not remaining:
            remaining = sorted(set(hosts) - set(chosen))
        if not remaining:
            raise InvalidRequestError("cannot place")
        chosen.append(_choice(rng, remaining))
    return chosen[:replication]


def hdfs_place(topo: Topology, rng: Random, replication: int) -> List[str]:
    """:class:`~repro.fs.placement.HdfsRackAwarePlacement`, scanning every host."""
    hosts = sorted(topo.hosts)
    primary = _choice(rng, hosts)
    chosen = [primary]
    if replication == 1:
        return chosen
    primary_host = topo.hosts[primary]

    same_rack = sorted(
        h.host_id
        for h in topo.hosts.values()
        if h.rack == primary_host.rack and h.host_id != primary
    )
    if same_rack:
        chosen.append(_choice(rng, same_rack))

    while len(chosen) < replication:
        used_racks = {topo.hosts[c].rack for c in chosen[1:]} | {primary_host.rack}
        remaining = sorted(
            h.host_id
            for h in topo.hosts.values()
            if h.rack not in used_racks and h.host_id not in chosen
        )
        if not remaining:
            remaining = sorted(set(hosts) - set(chosen))
        if not remaining:
            raise InvalidRequestError("cannot place")
        chosen.append(_choice(rng, remaining))
    return chosen[:replication]


def scored_place(
    topo: Topology,
    replication: int,
    writer: Optional[str],
    pick: Callable[[Optional[str], Sequence[str]], str],
) -> List[str]:
    """The Sinbad / Flowserver write-placement skeleton, scanning every host.

    ``pick(src, pool)`` scores a slot: ``src`` is the writer for the
    primary and the primary for every later slot.
    """
    hosts = sorted(topo.hosts)
    pool = [h for h in hosts if h != writer] or hosts
    primary = pick(writer, pool)
    chosen = [primary]
    if replication == 1:
        return chosen
    primary_host = topo.hosts[primary]

    same_pod_other_rack = [
        h.host_id
        for h in topo.hosts.values()
        if h.pod == primary_host.pod
        and h.rack != primary_host.rack
        and h.host_id not in chosen
        and h.host_id != writer
    ]
    if same_pod_other_rack:
        chosen.append(pick(primary, sorted(same_pod_other_rack)))
    if replication == 2:
        return chosen[:2]

    other_pod = [
        h.host_id
        for h in topo.hosts.values()
        if h.pod != primary_host.pod
        and h.host_id not in chosen
        and h.host_id != writer
    ]
    if other_pod:
        chosen.append(pick(primary, sorted(other_pod)))

    while len(chosen) < replication:
        used_racks = {topo.hosts[c].rack for c in chosen}
        remaining = sorted(
            h.host_id
            for h in topo.hosts.values()
            if h.rack not in used_racks
            and h.host_id not in chosen
            and h.host_id != writer
        ) or sorted(set(hosts) - set(chosen) - {writer}) or sorted(
            set(hosts) - set(chosen)
        )
        if not remaining:
            raise InvalidRequestError("cannot place")
        chosen.append(pick(primary, remaining))
    return chosen[:replication]


def place_client(
    topo: Topology, file: FileSpec, locality: LocalityDistribution, rng: Random
) -> str:
    """``repro.workload.generator._place_client``, building all three buckets."""
    primary_host = topo.hosts[file.primary]
    replicas = set(file.replicas)

    def eligible(hosts):
        return sorted(h for h in hosts if h not in replicas)

    same_rack = eligible(h.host_id for h in topo.hosts_in_rack(primary_host.rack))
    same_pod = eligible(
        h.host_id
        for h in topo.hosts_in_pod(primary_host.pod)
        if h.rack != primary_host.rack
    )
    other_pod = eligible(
        h.host_id for h in topo.hosts.values() if h.pod != primary_host.pod
    )

    draw = rng.random()
    if draw < locality.same_rack:
        buckets = [same_rack, same_pod, other_pod]
    elif draw < locality.same_rack + locality.same_pod:
        buckets = [same_pod, same_rack, other_pod]
    else:
        buckets = [other_pod, same_pod, same_rack]
    for bucket in buckets:
        if bucket:
            return bucket[rng.randrange(len(bucket))]
    raise ValueError("no eligible client host in the topology")


def validate_fault_domains(topology: Topology, replicas: Sequence[str]) -> List[str]:
    """Check §3.1's constraints; returns a list of violations (empty = ok).

    Replicas are distinct hosts and no two share a rack (the paper-eval
    policy); for replication >= 3 on a multi-pod topology at least one
    replica lives in a different pod.
    """
    problems = []
    if len(set(replicas)) != len(replicas):
        problems.append("duplicate replica hosts")
    distinct = set(replicas)
    if len({topology.hosts[r].rack for r in distinct}) < len(distinct):
        problems.append("two replicas share a rack")
    pods = {topology.hosts[r].pod for r in replicas}
    if len(replicas) >= 3 and len(topology.pods()) > 1 and len(pods) < 2:
        problems.append("all replicas in one pod")
    return problems
