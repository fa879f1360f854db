"""Pseudocode 1: SELECTREPLICAANDPATH.

Find the (replica, shortest path) pair with the least Eq. 2 cost
(:func:`repro.core.cost.flow_cost`) and commit the decision: register the
new flow at its estimated share and apply ``SETBW`` (estimate + freeze) to
every existing flow whose share the newcomer squeezes.

The paper scores every candidate; :func:`best_candidate` returns the same
argmin without doing so.  ``Cost(p) = d/b_j + penalty`` and every penalty
term is ``r_f/b'_f − r_f/b_f ≥ 0`` (``b'_f ≤ b_f``), so ``d/b_j`` is a
free lower bound: candidates are evaluated in increasing ``d/b_j`` and the
search stops at the first one whose bound is strictly above the best total
so far — neither it nor any later candidate can win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Optional, Sequence, Tuple

from repro.core.cost import CostBreakdown, LinkShareCache, bottleneck_share, flow_cost
from repro.core.flow_state import FlowStateTable, TrackedFlow
from repro.net.routing import Path


@dataclass(frozen=True)
class PathChoice:
    """Outcome of scoring one candidate (replica, path) pair."""

    path: Path
    cost: CostBreakdown

    @property
    def replica(self) -> str:
        return self.path.src


def _selection_key(path: Path, cost: CostBreakdown) -> Tuple[float, float, Tuple[str, ...]]:
    # Cheapest first; ties break on higher estimated bandwidth, then
    # lexicographic path id, keeping runs deterministic.
    return (cost.total, -cost.est_bw_bps, path.link_ids)


def best_candidate(
    candidate_paths: Sequence[Path],
    flow_size_bits: float,
    link_capacity_bps: Mapping[str, float],
    state: FlowStateTable,
    include_existing_flows: bool = True,
    cache: Optional[LinkShareCache] = None,
) -> PathChoice:
    """The candidate with the least ``(total, −b_j, link ids)``.

    Computes ``b_j`` once per candidate from one probe share per distinct
    link, ranks candidates by ``(d/b_j, −b_j, link ids)`` and runs
    :func:`flow_cost` in that order until the next bound is strictly
    greater than the best total seen.  The choice is exactly the head of
    a full sweep sorted by the selection key.

    Raises
    ------
    ValueError
        If there is no candidate path.
    """
    if not candidate_paths:
        raise ValueError("no candidate paths to select from")
    if cache is None:
        cache = LinkShareCache(state)
    link_share = cache.probe_shares(
        dict.fromkeys(chain.from_iterable(path.link_ids for path in candidate_paths)),
        link_capacity_bps,
    )
    ranked = []
    for path in candidate_paths:
        share = bottleneck_share(path.link_ids, link_share)
        est_bw = share[0]
        bound = flow_size_bits / est_bw if est_bw > 0 else math.inf
        ranked.append((bound, -est_bw, path.link_ids, path, share))
    ranked.sort(key=lambda r: r[:3])

    best: Optional[PathChoice] = None
    best_key = None
    for bound, _, _, path, share in ranked:
        if best is not None and bound > best.cost.total:
            break
        cost = flow_cost(
            path.link_ids,
            flow_size_bits,
            link_capacity_bps,
            state,
            include_existing_flows=include_existing_flows,
            share=share,
            cache=cache,
        )
        key = _selection_key(path, cost)
        if best_key is None or key < best_key:
            best, best_key = PathChoice(path=path, cost=cost), key
    assert best is not None
    return best


def commit_choice(
    choice: PathChoice,
    flow_id: str,
    flow_size_bits: float,
    state: FlowStateTable,
    now: float,
    job_id: Optional[str] = None,
) -> TrackedFlow:
    """Apply the winning choice to the Flowserver's state (Pseudocode 1 l.9-11).

    Registers the new flow at its estimated share (frozen), then ``SETBW``s
    every existing flow whose bandwidth the cost model predicts will drop.
    """
    tracked = TrackedFlow(
        flow_id=flow_id,
        path_link_ids=choice.path.link_ids,
        size_bits=flow_size_bits,
        remaining_bits=flow_size_bits,
        bw_bps=choice.cost.est_bw_bps,
        job_id=job_id,
    )
    state.add(tracked)
    state.set_bw(flow_id, choice.cost.est_bw_bps, now)
    for existing_id, new_bw in sorted(choice.cost.new_bw_of_existing.items()):
        if existing_id in state:
            state.set_bw(existing_id, new_bw, now)
    return tracked


def select_replica_and_path(
    candidate_paths: Sequence[Path],
    flow_id: str,
    flow_size_bits: float,
    link_capacity_bps: Mapping[str, float],
    state: FlowStateTable,
    now: float,
    include_existing_flows: bool = True,
    job_id: Optional[str] = None,
    cache: Optional[LinkShareCache] = None,
) -> PathChoice:
    """Full SELECTREPLICAANDPATH: pick the cheapest candidate and commit.

    Raises
    ------
    ValueError
        If no candidate path exists or every candidate has infinite cost.
    """
    best = best_candidate(
        candidate_paths,
        flow_size_bits,
        link_capacity_bps,
        state,
        include_existing_flows=include_existing_flows,
        cache=cache,
    )
    if math.isinf(best.cost.total):
        raise ValueError("all candidate paths have infinite cost")
    commit_choice(best, flow_id, flow_size_bits, state, now, job_id=job_id)
    return best
