"""Replication fan-out planning: chain vs. tree from live link state.

"Extending TCP for Accelerating Replication on Cluster File Systems over
SDNs" observes that the best *shape* for a replication pipeline depends
on current network conditions: a store-and-forward **chain**
(primary → s1 → s2 → …) spreads the load over distinct uplinks but pays
each hop's transfer time in sequence, while a **tree** (here: a one-level
star, primary → every secondary in parallel) finishes in one
generation but contends for the primary's uplink.  This module does the
shape arithmetic; the Flowserver supplies the per-edge bandwidth
estimates (its max-min probe shares over the flows it tracks) and owns
the degraded-mode fallback.

Completion-time model for ``d`` bits with per-edge estimated shares
``b``:

* chain ``p → s1 → … → sk``: store-and-forward, so
  ``t = Σ_hops d / b_hop`` — each hop starts when the previous finished;
* star: the ``k`` relay flows leave the primary concurrently and share
  its uplink, so flow *i* runs at ``min(b_i, B/k)`` with
  ``B = max_i b_i`` (the best single-flow share out of the primary
  bounds what the uplink can offer) and ``t = max_i d / min(b_i, B/k)``.

Ties break toward the chain (the shape a client with no planner uses),
then lexicographically on the relay order — planning is a pure function
of its inputs, so the same flow state always yields the same plan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.net.routing import Path

#: (path, estimated share in bit/s) for one relay edge.  ``path`` is
#: ``None`` when the edge should be routed by ECMP at transfer time.
EdgeEstimate = Tuple[Optional[Path], float]

#: Callback the planner uses to price a ``src -> dst`` relay edge.
EdgeEstimator = Callable[[str, str], EdgeEstimate]

#: Chain orderings are enumerated exhaustively up to this many
#: secondaries (4! = 24 candidates); beyond that only the given replica
#: order is considered, keeping planning O(k).
MAX_CHAIN_ENUMERATION = 4


@dataclass(frozen=True)
class RelayNode:
    """One relay target in the fan-out topology.

    ``path`` routes the transfer from this node's *parent* to ``host``
    (``None`` = ECMP at transfer time); ``children`` is where this node
    forwards the append next (non-empty only in chain shapes).
    """

    host: str
    path: Optional[Path]
    est_bw_bps: float
    children: Tuple["RelayNode", ...] = ()


@dataclass(frozen=True)
class FanoutPlan:
    """A planned write pipeline: push hop plus relay topology.

    ``kind`` is ``"chain"`` / ``"tree"`` for planned shapes, or
    ``"chain-static"`` for the degraded fallback (no estimates, every
    transfer ECMP-routed).
    """

    kind: str
    writer: str
    primary: str
    push_path: Optional[Path]
    push_bw_bps: float
    children: Tuple[RelayNode, ...]
    est_completion_s: float

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """Every ``(parent_host, child_host)`` relay hop, preorder.

        The push hop (writer → primary) is excluded — these are the
        relay edges a committed append travels, the ground truth trace
        topology assertions compare span parentage against.
        """
        collected: List[Tuple[str, str]] = []

        def visit(parent: str, node: RelayNode) -> None:
            collected.append((parent, node.host))
            for child in node.children:
                visit(node.host, child)

        for child in self.children:
            visit(self.primary, child)
        return tuple(collected)


def static_chain_plan(
    writer: str, primary: str, secondaries: Sequence[str]
) -> FanoutPlan:
    """The no-information fallback: a chain in replica order, ECMP paths.

    Used when the Flowserver is degraded (stale counters, unreachable
    paths) or absent; also the explicit baseline shape for the
    ``fanout="chain"`` comparison configurations.
    """
    node: Optional[RelayNode] = None
    for host in reversed(list(secondaries)):
        node = RelayNode(
            host=host,
            path=None,
            est_bw_bps=0.0,
            children=(node,) if node is not None else (),
        )
    return FanoutPlan(
        kind="chain-static",
        writer=writer,
        primary=primary,
        push_path=None,
        push_bw_bps=0.0,
        children=(node,) if node is not None else (),
        est_completion_s=math.inf,
    )


def _edge_time(size_bits: float, bw_bps: float) -> float:
    if bw_bps <= 0:
        return math.inf
    return size_bits / bw_bps


def _chain_candidate(
    order: Sequence[str],
    primary: str,
    size_bits: float,
    estimate: EdgeEstimator,
) -> Tuple[float, Tuple[RelayNode, ...]]:
    """Price one chain ordering; returns (relay seconds, topology)."""
    total = 0.0
    parent = primary
    edges: List[Tuple[str, Optional[Path], float]] = []
    for host in order:
        path, bw = estimate(parent, host)
        total += _edge_time(size_bits, bw)
        edges.append((host, path, bw))
        parent = host
    node: Optional[RelayNode] = None
    for host, path, bw in reversed(edges):
        node = RelayNode(
            host=host,
            path=path,
            est_bw_bps=bw,
            children=(node,) if node is not None else (),
        )
    children = (node,) if node is not None else ()
    return total, children


def _star_candidate(
    secondaries: Sequence[str],
    primary: str,
    size_bits: float,
    estimate: EdgeEstimator,
) -> Tuple[float, Tuple[RelayNode, ...]]:
    """Price the one-level tree; returns (relay seconds, topology)."""
    edges: List[Tuple[str, Optional[Path], float]] = []
    for host in secondaries:
        path, bw = estimate(primary, host)
        edges.append((host, path, bw))
    best = max((bw for _, _, bw in edges), default=0.0)
    k = len(edges)
    worst = 0.0
    for _, _, bw in edges:
        rate = min(bw, best / k) if k else bw
        worst = max(worst, _edge_time(size_bits, rate))
    children = tuple(
        RelayNode(host=host, path=path, est_bw_bps=bw)
        for host, path, bw in edges
    )
    return worst, children


def plan_fanout(
    writer: str,
    primary: str,
    secondaries: Sequence[str],
    size_bits: float,
    estimate: EdgeEstimator,
) -> FanoutPlan:
    """Pick the cheapest relay shape for one append.

    Evaluates every chain ordering (up to :data:`MAX_CHAIN_ENUMERATION`
    secondaries) plus the star, each under the completion-time model in
    the module docstring, and returns the minimum.  The push hop
    (writer → primary) is common to every shape and added to all
    estimates; a writer co-located with the primary pushes locally at
    infinite bandwidth.
    """
    if size_bits <= 0:
        raise ValueError(f"append size must be positive, got {size_bits}")
    if writer == primary:
        push_path: Optional[Path] = None
        push_bw = math.inf
        push_time = 0.0
    else:
        push_path, push_bw = estimate(writer, primary)
        push_time = _edge_time(size_bits, push_bw)

    uniq = list(secondaries)
    if not uniq:
        return FanoutPlan(
            kind="chain",
            writer=writer,
            primary=primary,
            push_path=push_path,
            push_bw_bps=push_bw,
            children=(),
            est_completion_s=push_time,
        )

    if len(uniq) <= MAX_CHAIN_ENUMERATION:
        orders: List[Tuple[str, ...]] = [
            tuple(p) for p in itertools.permutations(uniq)
        ]
    else:
        orders = [tuple(uniq)]

    # (relay time, kind rank, deterministic order key, kind, children).
    # Chain ranks before tree so exact ties keep the static-chain shape.
    candidates: List[
        Tuple[float, int, Tuple[str, ...], str, Tuple[RelayNode, ...]]
    ] = []
    for order in orders:
        relay_time, children = _chain_candidate(
            order, primary, size_bits, estimate
        )
        candidates.append((relay_time, 0, order, "chain", children))
    star_time, star_children = _star_candidate(
        uniq, primary, size_bits, estimate
    )
    candidates.append((star_time, 1, tuple(uniq), "tree", star_children))

    relay_time, _, _, kind, children = min(
        candidates, key=lambda c: (c[0], c[1], c[2])
    )
    return FanoutPlan(
        kind=kind,
        writer=writer,
        primary=primary,
        push_path=push_path,
        push_bw_bps=push_bw,
        children=children,
        est_completion_s=push_time + relay_time,
    )
