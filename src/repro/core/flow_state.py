"""The Flowserver's model of in-flight flows.

The Flowserver never reads ground truth from the network simulator; it keeps
its own :class:`TrackedFlow` per Mayflower-related flow, refreshed from
switch counters and adjusted analytically when new flows are scheduled.

Pseudocode 2's freeze discipline lives here:

* ``SETBW`` (:meth:`FlowStateTable.set_bw`) — after a scheduling decision,
  a flow's estimated bandwidth is overwritten and the flow is *frozen*
  until its expected completion time, so the next (stale) stats poll cannot
  clobber the estimate;
* ``UPDATEBW`` (:meth:`FlowStateTable.update_bw_from_stats`) — a measured
  bandwidth only lands if the flow is unfrozen or its freeze has expired.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.net.fairshare import single_link_fair_allocation
from repro.sim import instrument


@dataclass
class TrackedFlow:
    """Flowserver-side state for one flow.

    Attributes
    ----------
    bw_bps:
        Current bandwidth-share estimate (measured or analytically set).
    remaining_bits:
        Outstanding volume, refreshed from flow stats on every poll (the
        freeze discipline applies only to bandwidth).
    freezed / freeze_until:
        Pseudocode 2 state: while ``freezed`` and ``now <= freeze_until``,
        measured bandwidths are ignored.
    """

    flow_id: str
    path_link_ids: Tuple[str, ...]
    size_bits: float
    remaining_bits: float
    bw_bps: float
    freezed: bool = False
    freeze_until: float = 0.0
    job_id: Optional[str] = None

    def expected_completion(self) -> float:
        """Seconds left at the current estimate (``inf`` at zero bandwidth)."""
        if self.bw_bps <= 0:
            return math.inf
        return self.remaining_bits / self.bw_bps


class LinkMemo:
    """Memoised water-fills of one link (see :class:`repro.core.cost.LinkShareCache`).

    ``members`` are the link's tracked flows in :meth:`FlowStateTable.flows_on_link`
    order and ``demands`` their bandwidth estimates; ``probe`` maps a link
    capacity to the infinite-demand probe's share and ``newcomer`` maps
    ``(capacity, newcomer demand)`` to the full allocation plus the
    ``(flow id, slot)`` pairs of the members it squeezes.

    ``fill`` is the water-fill order of
    :func:`~repro.net.fairshare.single_link_fair_allocation`, computed once
    when the memo is built: the indices of the members with a positive
    demand, demand ascending, ties in member order.  ``fill_demands`` are
    their demands in that order.  A newcomer of positive demand ``d`` ties
    after every member of demand ``d`` (it has the highest index), so it
    enters the order at ``bisect_right(fill_demands, d)`` and a fill walks
    the same flows as the reference routine without a sort.  ``fill`` is
    ``None`` when a member's demand is negative: every fill then runs the
    reference routine, which raises.
    """

    __slots__ = ("members", "demands", "fill", "fill_demands", "probe", "newcomer")

    def __init__(self, members: List[TrackedFlow]):
        self.members = members
        demands = self.demands = [f.bw_bps for f in members]
        fill = [i for i, d in enumerate(demands) if d > 0]
        fill.sort(key=demands.__getitem__)
        self.fill_demands = [demands[i] for i in fill]
        negative = len(fill) < len(demands) and min(demands) < 0
        self.fill: Optional[List[int]] = None if negative else fill
        self.probe: Dict[float, float] = {}
        self.newcomer: Dict[
            Tuple[float, float], Tuple[List[float], List[Tuple[str, float]]]
        ] = {}

    def probe_fill(self, capacity_bps: float) -> float:
        """``single_link_fair_allocation(capacity, demands + [inf])[-1]``."""
        if self.fill is None or capacity_bps <= 0:
            return single_link_fair_allocation(
                capacity_bps, self.demands + [math.inf]
            )[-1]
        remaining = float(capacity_bps)
        count = len(self.fill_demands) + 1
        for demand in self.fill_demands:
            share = remaining / count
            give = share if share < demand else demand
            remaining -= give
            count -= 1
            if remaining <= 0:
                return 0.0
        # The probe comes last, alone: its demand caps nothing.
        return remaining / count

    def newcomer_fill(
        self, capacity_bps: float, newcomer_demand_bps: float
    ) -> Tuple[List[float], List[Tuple[str, float]]]:
        """The water-fill of ``demands + [newcomer_demand_bps]`` and the
        ``(flow id, slot)`` of every member whose slot is below its demand."""
        demands = self.demands + [newcomer_demand_bps]
        fill = self.fill
        if fill is None or capacity_bps <= 0 or not newcomer_demand_bps > 0:
            allocation = single_link_fair_allocation(capacity_bps, demands)
        else:
            at = bisect_right(self.fill_demands, newcomer_demand_bps)
            allocation = [0.0] * len(demands)
            remaining = float(capacity_bps)
            count = len(fill) + 1
            for i in fill[:at] + [len(self.members)] + fill[at:]:
                share = remaining / count
                demand = demands[i]
                give = share if share < demand else demand
                allocation[i] = give
                remaining -= give
                count -= 1
                if remaining <= 0:
                    break
        squeezed = [
            (flow.flow_id, slot)
            for flow, demand, slot in zip(self.members, demands, allocation)
            if slot < demand
        ]
        return allocation, squeezed


@dataclass
class FlowStateTable:
    """All tracked flows plus the link -> flows index the cost model needs.

    ``link_memo`` holds one :class:`LinkMemo` per link the cost model has
    water-filled since that link last changed.  Every mutation that can
    move a max-min estimate — membership (add/remove) and bandwidth
    writes (``SETBW``, an applied ``UPDATEBW``) — drops the entries of
    exactly the links on the mutated flow's path, so the memo is always a
    function of the current table and survives every change elsewhere.

    ``_link_index`` keeps each link's flow ids as a sorted list, so
    :meth:`flows_on_link` reads it in order without a sort.
    """

    flows: Dict[str, TrackedFlow] = field(default_factory=dict)
    _link_index: Dict[str, List[str]] = field(default_factory=dict)
    link_memo: Dict[str, LinkMemo] = field(
        default_factory=dict, compare=False, repr=False
    )

    def _forget_links(self, flow: TrackedFlow) -> None:
        memo = self.link_memo
        for link_id in flow.path_link_ids:
            memo.pop(link_id, None)

    def add(self, flow: TrackedFlow) -> None:
        if flow.flow_id in self.flows:
            raise ValueError(f"flow {flow.flow_id!r} already tracked")
        flow_id = flow.flow_id
        self.flows[flow_id] = flow
        index = self._link_index
        for link_id in flow.path_link_ids:
            ids = index.get(link_id)
            if ids is None:
                index[link_id] = [flow_id]
                continue
            at = bisect_left(ids, flow_id)
            if at == len(ids) or ids[at] != flow_id:  # a path may list a link twice
                ids.insert(at, flow_id)
        self._forget_links(flow)

    def remove(self, flow_id: str) -> Optional[TrackedFlow]:
        """Forget a flow (on FlowRemoved); returns it if it was tracked."""
        flow = self.flows.pop(flow_id, None)
        if flow is None:
            return None
        index = self._link_index
        for link_id in flow.path_link_ids:
            ids = index.get(link_id)
            if ids is None:
                continue
            at = bisect_left(ids, flow_id)
            if at < len(ids) and ids[at] == flow_id:
                del ids[at]
                if not ids:
                    del index[link_id]
        self._forget_links(flow)
        return flow

    def flows_on_link(self, link_id: str) -> List[TrackedFlow]:
        """Tracked flows traversing ``link_id``, in flow-id order."""
        flows = self.flows
        return [flows[fid] for fid in self._link_index.get(link_id, ())]

    def flows_on_path(self, link_ids: Iterable[str]) -> List[TrackedFlow]:
        """Distinct tracked flows sharing at least one link with the path."""
        seen: Set[str] = set()
        for link_id in link_ids:
            seen.update(self._link_index.get(link_id, ()))
        return [self.flows[fid] for fid in sorted(seen)]

    # ------------------------------------------------------------------
    # Pseudocode 2
    # ------------------------------------------------------------------

    def set_bw(self, flow_id: str, bw_bps: float, now: float) -> None:
        """``SETBW``: commit an analytic estimate and freeze the flow."""
        flow = self.flows[flow_id]
        flow.bw_bps = bw_bps
        self._forget_links(flow)
        flow.freeze_until = now + flow.expected_completion()
        flow.freezed = True
        tel = instrument.TELEMETRY
        if tel is not None and math.isfinite(flow.freeze_until):
            tel.instant(now, "flow.freeze", "freeze", flow=flow_id,
                        bw_bps=bw_bps, until=flow.freeze_until)

    def update_bw_from_stats(self, flow_id: str, bw_bps: float, now: float) -> bool:
        """``UPDATEBW``: apply a measured bandwidth unless frozen.

        Returns whether the measurement was applied.  An expired freeze is
        lifted by the update.
        """
        flow = self.flows.get(flow_id)
        if flow is None:
            return False
        if not flow.freezed or now > flow.freeze_until:
            was_frozen = flow.freezed
            flow.bw_bps = bw_bps
            self._forget_links(flow)
            flow.freezed = False
            if was_frozen:
                tel = instrument.TELEMETRY
                if tel is not None:
                    tel.instant(now, "flow.unfreeze", "freeze", flow=flow_id,
                                bw_bps=bw_bps)
            return True
        return False

    def update_remaining(self, flow_id: str, remaining_bits: float) -> None:
        """Refresh outstanding volume from flow stats (never frozen)."""
        flow = self.flows.get(flow_id)
        if flow is not None:
            flow.remaining_bits = max(0.0, remaining_bits)

    def __len__(self) -> int:
        return len(self.flows)

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self.flows
