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

from repro.core.cost import CostBreakdown, LinkShareCache, flow_cost
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


def best_candidate(
    candidate_paths: Sequence[Path],
    flow_size_bits: float,
    link_capacity_bps: Mapping[str, float],
    state: FlowStateTable,
    include_existing_flows: bool = True,
    cache: Optional[LinkShareCache] = None,
) -> PathChoice:
    """The candidate with the least ``(total, −b_j, link ids)``.

    Takes one probe share per distinct link of the sweep; one loop then
    finds each candidate's ``b_j`` (its bottleneck share) and ranks the
    candidates by ``(d/b_j, −b_j, link ids)``.  :func:`flow_cost` runs in
    that order until the next bound is strictly greater than the best
    total seen.  Cheapest first, ties on higher ``b_j`` and then
    lexicographic link ids, so the choice is exactly the head of a full
    sweep sorted that way.

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
    for position, path in enumerate(candidate_paths):
        link_ids = path.link_ids
        est_bw = math.inf
        bottleneck: Optional[str] = None
        for link_id in link_ids:
            share = link_share[link_id]
            if share < est_bw:
                est_bw = share
                bottleneck = link_id
        bound = flow_size_bits / est_bw if est_bw > 0 else math.inf
        # ``position`` keeps equal keys in candidate order (a stable sort).
        ranked.append((bound, -est_bw, link_ids, position, path, bottleneck))
    ranked.sort()

    best: Optional[Tuple[Path, CostBreakdown]] = None
    best_key: Tuple[float, float, Tuple[str, ...]] = (math.inf, math.inf, ())
    for bound, neg_bw, link_ids, _, path, bottleneck in ranked:
        if best is not None and bound > best_key[0]:
            break
        cost = flow_cost(
            link_ids,
            flow_size_bits,
            link_capacity_bps,
            state,
            include_existing_flows=include_existing_flows,
            share=(-neg_bw, bottleneck),
            cache=cache,
        )
        key = (cost.total, -cost.est_bw_bps, link_ids)
        if best is None or key < best_key:
            best, best_key = (path, cost), key
    assert best is not None
    return PathChoice(*best)


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
