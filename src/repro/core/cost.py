"""The Mayflower path cost model (Eq. 1 and 2, §4.2).

For a candidate path *p* and a read of *d* bits::

    Cost(p) = d / b_j  +  Σ_{f ∈ F_p} [ r_f / b'_f  −  r_f / b_f ]

* ``b_j`` — estimated max-min share of the new flow on *p*: on every link
  the probe (infinite demand) is water-filled against the link's existing
  flows whose demands are their current bandwidth estimates; the probe's
  share is its allocation at the bottleneck link
  (:func:`estimate_path_share`).
* ``b'_f`` — the new bandwidth of existing flow *f* once a flow with demand
  ``b_j`` joins the links of *p*: on every shared link, water-fill existing
  demands plus the ``b_j``-demand newcomer and take *f*'s worst allocation;
  a flow never speeds up from a newcomer, so ``b'_f ≤ b_f``
  (:func:`new_bandwidth_of_existing`).

The worked example of Fig. 2 (costs 4.25 vs 3.6, and 2.4 with a 20 Mbps
link) is reproduced exactly by this module — see
``tests/core/test_worked_example.py``.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.flow_state import FlowStateTable, LinkMemo, TrackedFlow


class LinkShareCache:
    """Memoised per-link water-filling over a flow-state table.

    Candidate paths overlap heavily — all paths out of one replica share
    its edge uplink, all paths into the client share its downlink — and
    most links are untouched between consecutive selections.  This cache
    computes each distinct (link, newcomer demand) allocation once and
    replays it for every later probe or ``NEWBANDWIDTH`` on that link.

    The memo itself is :attr:`FlowStateTable.link_memo`: the table drops a
    link's entry whenever a flow on it joins, leaves or has its bandwidth
    written (``SETBW``, an applied ``UPDATEBW``).  An entry therefore
    always describes the current table, and a single long-lived instance
    (the Flowserver owns one) is as correct as a fresh cache per sweep —
    including across commits and across the split search's two sweeps.

    Returned values are exactly what
    :func:`~repro.net.fairshare.single_link_fair_allocation` computes: a
    :class:`LinkMemo` keeps the routine's fill order and replays its
    arithmetic step for step, so cached and uncached sweeps are
    bit-identical.
    """

    def __init__(self, state: FlowStateTable):
        self._state = state
        self._memo = state.link_memo
        #: Allocation lookups served from memo / computed fresh.
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of allocation lookups served from the memo."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _entry(self, link_id: str) -> LinkMemo:
        entry = self._memo.get(link_id)
        if entry is None:
            entry = self._memo[link_id] = LinkMemo(self._state.flows_on_link(link_id))
        return entry

    def members(self, link_id: str) -> List[TrackedFlow]:
        """Tracked flows on a link (sorted), memoised until the link changes."""
        return self._entry(link_id).members

    def probe_share(self, link_id: str, capacity_bps: float) -> float:
        """The infinite-demand probe's allocation on one link (§4.2)."""
        return self.probe_shares((link_id,), {link_id: capacity_bps})[link_id]

    def probe_shares(
        self, link_ids: Iterable[str], link_capacity_bps: Mapping[str, float]
    ) -> Dict[str, float]:
        """:meth:`probe_share` of every link in ``link_ids``, keyed by link."""
        memo = self._memo
        shares: Dict[str, float] = {}
        for link_id in link_ids:
            entry = memo.get(link_id)
            if entry is None:
                entry = memo[link_id] = LinkMemo(self._state.flows_on_link(link_id))
            capacity_bps = link_capacity_bps[link_id]
            share = entry.probe.get(capacity_bps)
            if share is None:
                self.misses += 1
                share = entry.probe[capacity_bps] = entry.probe_fill(capacity_bps)
            else:
                self.hits += 1
            shares[link_id] = share
        return shares

    def newcomer_allocation(
        self, link_id: str, capacity_bps: float, newcomer_demand_bps: float
    ) -> List[float]:
        """Water-fill of a link's flows plus one newcomer with a finite
        demand; allocation order is :meth:`members` order, newcomer last."""
        return self._newcomer(self._entry(link_id), capacity_bps, newcomer_demand_bps)[0]

    def new_bandwidths(
        self,
        path_link_ids: Sequence[str],
        link_capacity_bps: Mapping[str, float],
        newcomer_demand_bps: float,
    ) -> Dict[str, float]:
        """:func:`new_bandwidth_of_existing` over the memo: one lookup per
        path link, and only the members a link's water-fill squeezes are
        visited."""
        memo = self._memo
        worst: Dict[str, float] = {}
        for link_id in path_link_ids:
            entry = memo.get(link_id)
            if entry is None:
                entry = memo[link_id] = LinkMemo(self._state.flows_on_link(link_id))
            if not entry.members:
                continue
            _, squeezed = self._newcomer(
                entry, link_capacity_bps[link_id], newcomer_demand_bps
            )
            for flow_id, slot in squeezed:
                if slot < worst.get(flow_id, math.inf):
                    worst[flow_id] = slot
        return worst

    def _newcomer(
        self, entry: LinkMemo, capacity_bps: float, newcomer_demand_bps: float
    ) -> Tuple[List[float], List[Tuple[str, float]]]:
        key = (capacity_bps, newcomer_demand_bps)
        got = entry.newcomer.get(key)
        if got is None:
            self.misses += 1
            got = entry.newcomer[key] = entry.newcomer_fill(*key)
        else:
            self.hits += 1
        return got


#: ``new_bw_of_existing`` of a cost that squeezes no flow.
_NO_SQUEEZE: Mapping[str, float] = MappingProxyType({})


class CostBreakdown(NamedTuple):
    """Cost of placing a new flow on one candidate path.

    Attributes
    ----------
    total:
        ``Cost(p)`` — seconds of aggregate completion time added.
    new_flow_time:
        First term: the new flow's own expected completion time.
    existing_flows_penalty:
        Second term: summed completion-time increase of existing flows.
    est_bw_bps:
        ``b_j`` — the new flow's estimated max-min share on this path.
    bottleneck_link_id:
        Link that capped ``b_j``.
    new_bw_of_existing:
        Per-flow ``b'_f`` for every existing flow whose bandwidth changes
        (flows whose share is untouched are omitted).
    """

    total: float
    new_flow_time: float
    existing_flows_penalty: float
    est_bw_bps: float
    bottleneck_link_id: Optional[str]
    new_bw_of_existing: Mapping[str, float] = _NO_SQUEEZE


def estimate_path_share(
    path_link_ids: Sequence[str],
    link_capacity_bps: Mapping[str, float],
    state: FlowStateTable,
    cache: Optional[LinkShareCache] = None,
) -> Tuple[float, Optional[str]]:
    """``MAXMINSHARE``: the probe's estimated rate along one path.

    Returns ``(b_j, bottleneck_link_id)``: the smallest per-link probe
    share along the path, and the first link that has it.  ``cache``
    shares per-link allocations across calls; omitted, a transient cache
    still deduplicates repeated links within this one path.
    """
    if cache is None:
        cache = LinkShareCache(state)
    link_share = cache.probe_shares(path_link_ids, link_capacity_bps)
    best = math.inf
    bottleneck: Optional[str] = None
    for link_id in path_link_ids:
        share = link_share[link_id]
        if share < best:
            best = share
            bottleneck = link_id
    return best, bottleneck


def new_bandwidth_of_existing(
    path_link_ids: Sequence[str],
    new_flow_demand_bps: float,
    link_capacity_bps: Mapping[str, float],
    state: FlowStateTable,
    cache: Optional[LinkShareCache] = None,
) -> Dict[str, float]:
    """``NEWBANDWIDTH`` for every flow a newcomer on the path squeezes.

    Runs once per path link that carries tracked flows: one water-fill of
    the link's demands plus the newcomer, and every member reads its own
    slot.  A flow's new share is its worst slot across the links it
    shares with the path, and never exceeds its current estimate; the
    result maps each flow whose share drops to that new share.
    """
    if cache is None:
        cache = LinkShareCache(state)
    return cache.new_bandwidths(path_link_ids, link_capacity_bps, new_flow_demand_bps)


def flow_cost(
    path_link_ids: Sequence[str],
    flow_size_bits: float,
    link_capacity_bps: Mapping[str, float],
    state: FlowStateTable,
    include_existing_flows: bool = True,
    share: Optional[Tuple[float, Optional[str]]] = None,
    cache: Optional[LinkShareCache] = None,
) -> CostBreakdown:
    """``FLOWCOST``: evaluate Eq. 2 for one candidate path.

    Parameters
    ----------
    include_existing_flows:
        Ablation hook — when ``False`` the second term of Eq. 2 is dropped
        and the cost degenerates to the greedy
        maximize-my-own-bandwidth policy the paper argues against.
    share:
        ``(b_j, bottleneck_link_id)`` already computed for this path (a
        candidate search computes it once per candidate to rank them);
        :func:`estimate_path_share` runs when omitted.
    cache:
        Shared :class:`LinkShareCache`; a private one is built when
        omitted (single-path call sites).

    The penalty is summed over squeezed flows in flow-id order, so the
    float sum is the same whichever order the links were visited in.
    """
    if flow_size_bits <= 0:
        raise ValueError(f"flow size must be positive, got {flow_size_bits}")
    if cache is None:
        cache = LinkShareCache(state)
    if share is None:
        share = estimate_path_share(path_link_ids, link_capacity_bps, state, cache=cache)
    est_bw_bps, bottleneck = share

    if est_bw_bps <= 0:
        return CostBreakdown(
            total=math.inf,
            new_flow_time=math.inf,
            existing_flows_penalty=0.0,
            est_bw_bps=0.0,
            bottleneck_link_id=bottleneck,
        )

    new_flow_time = flow_size_bits / est_bw_bps
    penalty = 0.0
    changed: Mapping[str, float] = _NO_SQUEEZE

    if include_existing_flows:
        squeezed = new_bandwidth_of_existing(
            path_link_ids, est_bw_bps, link_capacity_bps, state, cache=cache
        )
        if squeezed:
            flows = state.flows
            moved: Dict[str, float] = {}
            changed = moved
            for flow_id in sorted(squeezed):
                new_bw = moved[flow_id] = squeezed[flow_id]
                if new_bw <= 0:
                    penalty = math.inf
                    break
                flow = flows[flow_id]
                if flow.bw_bps > 0:
                    penalty += flow.remaining_bits / new_bw - flow.remaining_bits / flow.bw_bps

    return CostBreakdown(
        total=new_flow_time + penalty,
        new_flow_time=new_flow_time,
        existing_flows_penalty=penalty,
        est_bw_bps=est_bw_bps,
        bottleneck_link_id=bottleneck,
        new_bw_of_existing=changed,
    )
