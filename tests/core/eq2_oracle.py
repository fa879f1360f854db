"""A naive Eq. 2 reference: every candidate, every flow, every link, no memo.

Each water-fill is recomputed from :func:`single_link_fair_allocation`
over :meth:`FlowStateTable.flows_on_link`, each existing flow is
re-evaluated on its own, and every candidate is scored and sorted by the
selection key ``(total, −b_j, link ids)`` — Pseudocode 1 as the paper
states it.  Tests compare :func:`repro.core.selection.best_candidate` and
the planners built on it against this sweep, field for field.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence

from repro.core.cost import CostBreakdown
from repro.core.flow_state import FlowStateTable
from repro.core.selection import PathChoice
from repro.net.fairshare import single_link_fair_allocation
from repro.net.routing import Path


def _allocation(link_id, capacities, state, newcomer_demand):
    members = state.flows_on_link(link_id)
    allocation = single_link_fair_allocation(
        capacities[link_id], [f.bw_bps for f in members] + [newcomer_demand]
    )
    return {f.flow_id: allocation[i] for i, f in enumerate(members)}, allocation[-1]


def oracle_cost(
    path_link_ids: Sequence[str],
    flow_size_bits: float,
    capacities: Mapping[str, float],
    state: FlowStateTable,
    include_existing_flows: bool = True,
) -> CostBreakdown:
    """Eq. 2 for one path, recomputing every allocation from scratch."""
    est_bw = math.inf
    bottleneck = None
    for link_id in path_link_ids:
        _, probe = _allocation(link_id, capacities, state, math.inf)
        if probe < est_bw:
            est_bw, bottleneck = probe, link_id
    if est_bw <= 0:
        return CostBreakdown(math.inf, math.inf, 0.0, 0.0, bottleneck)

    new_flow_time = flow_size_bits / est_bw
    penalty = 0.0
    changed = {}
    if include_existing_flows:
        for flow in state.flows_on_path(path_link_ids):
            new_bw = flow.bw_bps
            for link_id in path_link_ids:
                if link_id in flow.path_link_ids:
                    slots, _ = _allocation(link_id, capacities, state, est_bw)
                    new_bw = min(new_bw, slots[flow.flow_id])
            if new_bw >= flow.bw_bps:
                continue
            changed[flow.flow_id] = new_bw
            if new_bw <= 0:
                penalty = math.inf
                break
            if flow.bw_bps > 0:
                penalty += flow.remaining_bits / new_bw - flow.remaining_bits / flow.bw_bps
    return CostBreakdown(
        new_flow_time + penalty, new_flow_time, penalty, est_bw, bottleneck, changed
    )


def oracle_sweep(
    candidate_paths: Sequence[Path],
    flow_size_bits: float,
    capacities: Mapping[str, float],
    state: FlowStateTable,
    include_existing_flows: bool = True,
) -> List[PathChoice]:
    """Every candidate scored, cheapest first by the selection key."""
    choices = [
        PathChoice(
            path,
            oracle_cost(
                path.link_ids, flow_size_bits, capacities, state,
                include_existing_flows,
            ),
        )
        for path in candidate_paths
    ]
    choices.sort(key=lambda c: (c.cost.total, -c.cost.est_bw_bps, c.path.link_ids))
    return choices
