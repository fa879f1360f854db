"""Max-min fair-share arithmetic.

Two layers of the system need max-min computations:

* The **flow simulator** needs ground-truth rates for every active flow in
  the whole network — :func:`max_min_fair_rates` implements classic
  progressive filling (water-filling) over all links simultaneously.
* The **Flowserver** estimates shares link-by-link along one candidate path
  (§4.2): :func:`single_link_fair_allocation` divides one link's capacity
  across flows with demands, where the probing new flow has infinite demand.

Rates are bits/second; capacities must be positive.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple


def single_link_fair_allocation(
    capacity_bps: float,
    demands: Sequence[float],
) -> List[float]:
    """Water-fill one link's capacity across flows with given demands.

    Each flow receives an equal share, capped at its demand; capacity left
    over by capped flows is redistributed among the rest.  ``math.inf``
    demands are allowed (the probing new flow in the Flowserver's estimate).

    Returns the per-flow allocation in input order.  If the sum of demands
    is below capacity every flow simply gets its demand.
    """
    if capacity_bps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_bps}")
    n = len(demands)
    if n == 0:
        return []
    for d in demands:
        if d < 0:
            raise ValueError(f"demands must be non-negative, got {d}")

    allocation = [0.0] * n
    remaining_capacity = float(capacity_bps)
    # Process flows in ascending demand order: once the equal share exceeds
    # the smallest remaining demand, that flow is satisfied and frozen.
    # A single index sweep suffices — after the k-th freeze exactly
    # ``len(order) - k`` flows remain active, so the equal share is
    # ``remaining_capacity / remaining_count`` without rebuilding the
    # active list (the historical O(n²) rebuild produced the same values).
    order = sorted(
        (i for i in range(n) if demands[i] > 0), key=lambda idx: demands[idx]
    )
    remaining_count = len(order)
    for i in order:
        share = remaining_capacity / remaining_count
        give = min(demands[i], share)
        allocation[i] = give
        remaining_capacity -= give
        remaining_count -= 1
        if remaining_capacity <= 0:
            break
    return allocation


def max_min_fair_rates(
    flow_links: Mapping[str, Sequence[str]],
    link_capacity_bps: Mapping[str, float],
    flow_demands: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Global max-min fair rates via progressive filling.

    Parameters
    ----------
    flow_links:
        Mapping of flow id to the link ids it traverses.
    link_capacity_bps:
        Capacity of every link (only links carrying flows need appear).
    flow_demands:
        Optional per-flow rate caps (defaults to unbounded).  A flow whose
        demand is met before any of its links saturates is frozen at its
        demand.

    Returns
    -------
    dict
        flow id -> rate in bits/second.  Flows traversing no links (local
        transfers) get ``math.inf``.

    Notes
    -----
    Progressive filling: repeatedly find the bottleneck link — the one whose
    remaining capacity divided by its count of unfrozen flows is smallest —
    then freeze all unfrozen flows on it at that fair share (every link
    within a relative ``1e-12`` of it counts as a bottleneck), in flow-id
    order.  A flow whose demand is at or below that share freezes at its
    demand first, smallest ``(demand, flow id)`` one per round.  Every
    round freezes at least one flow.

    The state is dense: flows are indexed in sorted-id order and links in
    order of first appearance, so a round is one pass over a residual list
    and an unfrozen-count list restricted to the links still carrying
    unfrozen flows.  Every float operation — each share division, the
    ``max(0.0, r - rate)`` subtraction per (flow, link) in freeze order —
    is the one the dict-of-sets formulation performs, so the rates are the
    same bits.
    """
    rates: Dict[str, float] = {}
    link_index: Dict[str, int] = {}
    residual: List[float] = []
    path_of: Dict[str, List[int]] = {}
    for flow_id, links in flow_links.items():
        if not links:
            rates[flow_id] = math.inf
            continue
        path = []
        for link_id in links:
            k = link_index.get(link_id)
            if k is None:
                capacity = link_capacity_bps.get(link_id)
                if capacity is None:
                    raise KeyError(f"no capacity for link {link_id!r}")
                if capacity <= 0:
                    raise ValueError(f"link {link_id!r} capacity must be positive")
                k = link_index[link_id] = len(residual)
                residual.append(float(capacity))
            path.append(k)
        path_of[flow_id] = path

    ids = sorted(path_of)
    paths = [path_of[flow_id] for flow_id in ids]
    # ``once[j]`` is flow j's path with each link kept once: a flow counts
    # once in a link's unfrozen total however often its path lists it.
    once = list(paths)
    members: List[List[int]] = [[] for _ in residual]
    for j, path in enumerate(paths):
        for k in path:
            on_link = members[k]
            if on_link and on_link[-1] == j:
                once[j] = list(dict.fromkeys(path))
            else:
                on_link.append(j)
    unfrozen_on = [len(on_link) for on_link in members]
    frozen = [False] * len(ids)
    left = len(ids)

    demands = flow_demands or {}
    capped: List[Tuple[float, int]] = []
    if demands:
        for j, flow_id in enumerate(ids):
            demand = demands.get(flow_id)
            if demand is not None:
                capped.append((demand, j))
        capped.sort()
    head = 0

    def freeze(j: int, rate: float) -> None:
        nonlocal left
        rates[ids[j]] = rate
        frozen[j] = True
        left -= 1
        for k in paths[j]:
            r = residual[k] - rate
            residual[k] = r if r > 0.0 else 0.0
        for k in once[j]:
            unfrozen_on[k] -= 1

    live = list(range(len(residual)))
    while left:
        shares = [residual[k] / unfrozen_on[k] for k in live]
        share = min(shares)
        while head < len(capped) and frozen[capped[head][1]]:
            head += 1

        if share == math.inf:
            # Only infinite capacities get here: every unfrozen flow is then
            # demand-limited, uncapped ones at an infinite demand.
            demand, j = min(
                (demands.get(ids[i], math.inf), i)
                for i in range(len(ids))
                if not frozen[i]
            )
            freeze(j, demand)
        elif head < len(capped) and capped[head][0] <= share:
            # The smallest (demand, id) cap at or below the share freezes
            # first, releasing capacity for everyone else.
            demand, j = capped[head]
            freeze(j, demand)
        else:
            limit = share * (1 + 1e-12)
            to_freeze: Set[int] = set()
            for k, link_share in zip(live, shares):
                if link_share <= limit:
                    to_freeze.update(members[k])
            for j in sorted(to_freeze):
                if not frozen[j]:
                    freeze(j, share)
        live = [k for k in live if unfrozen_on[k]]

    return rates

