"""The dict/set progressive-filling solver, kept as the max-min test oracle.

:func:`repro.net.fairshare.max_min_fair_rates` solves on interned link
ints with exact short-cuts; this is the straightforward formulation,
unchanged: every bottleneck round rescans every link's member set and
every unfrozen flow.  Tests assert the two return equal dicts (``==``,
not approximately) and raise the same errors, and the rate-engine
differential suites check the engine against this oracle rather than
against the routine it calls.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Set


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
    then freeze all unfrozen flows on it at that fair share.  Terminates in
    at most ``len(links)`` iterations.
    """
    rates: Dict[str, float] = {}
    unfrozen: Dict[str, List[str]] = {}
    for flow_id, links in flow_links.items():
        if not links:
            rates[flow_id] = math.inf
        else:
            unfrozen[flow_id] = list(links)

    demands = dict(flow_demands) if flow_demands else {}

    remaining: Dict[str, float] = {}
    link_members: Dict[str, Set[str]] = {}
    for flow_id, links in unfrozen.items():
        for link_id in links:
            if link_id not in remaining:
                capacity = link_capacity_bps.get(link_id)
                if capacity is None:
                    raise KeyError(f"no capacity for link {link_id!r}")
                if capacity <= 0:
                    raise ValueError(f"link {link_id!r} capacity must be positive")
                remaining[link_id] = float(capacity)
                link_members[link_id] = set()
            link_members[link_id].add(flow_id)

    def freeze(flow_id: str, rate: float) -> None:
        rates[flow_id] = rate
        for link_id in unfrozen[flow_id]:
            remaining[link_id] = max(0.0, remaining[link_id] - rate)
            link_members[link_id].discard(flow_id)
        del unfrozen[flow_id]

    while unfrozen:
        # Bottleneck fair share over links that still carry unfrozen flows.
        bottleneck_share = math.inf
        for link_id, members in link_members.items():
            if not members:
                continue
            share = remaining[link_id] / len(members)
            if share < bottleneck_share:
                bottleneck_share = share

        # Flows whose demand caps them below the bottleneck share freeze at
        # their demand first (they release capacity for everyone else).
        demand_limited = [
            f
            for f in unfrozen
            if demands.get(f, math.inf) <= bottleneck_share
        ]
        if demand_limited:
            flow_id = min(demand_limited, key=lambda f: (demands.get(f, math.inf), f))
            freeze(flow_id, demands.get(flow_id, math.inf))
            continue

        if not math.isfinite(bottleneck_share):  # pragma: no cover - defensive
            for flow_id in list(unfrozen):
                freeze(flow_id, math.inf)
            break

        # Freeze every unfrozen flow on (one of) the bottleneck links.
        to_freeze: Set[str] = set()
        for link_id, members in link_members.items():
            if members and remaining[link_id] / len(members) <= bottleneck_share * (1 + 1e-12):
                to_freeze.update(members)
        for flow_id in sorted(to_freeze):
            freeze(flow_id, bottleneck_share)

    return rates
