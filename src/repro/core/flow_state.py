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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

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
    """

    __slots__ = ("members", "demands", "probe", "newcomer")

    def __init__(self, members: List[TrackedFlow]):
        self.members = members
        self.demands = [f.bw_bps for f in members]
        self.probe: Dict[float, float] = {}
        self.newcomer: Dict[
            Tuple[float, float], Tuple[List[float], List[Tuple[str, float]]]
        ] = {}


@dataclass
class FlowStateTable:
    """All tracked flows plus the link -> flows index the cost model needs.

    ``link_memo`` holds one :class:`LinkMemo` per link the cost model has
    water-filled since that link last changed.  Every mutation that can
    move a max-min estimate — membership (add/remove) and bandwidth
    writes (``SETBW``, an applied ``UPDATEBW``) — drops the entries of
    exactly the links on the mutated flow's path, so the memo is always a
    function of the current table and survives every change elsewhere.
    """

    flows: Dict[str, TrackedFlow] = field(default_factory=dict)
    _link_index: Dict[str, Set[str]] = field(default_factory=dict)
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
        self.flows[flow.flow_id] = flow
        for link_id in flow.path_link_ids:
            self._link_index.setdefault(link_id, set()).add(flow.flow_id)
        self._forget_links(flow)

    def remove(self, flow_id: str) -> Optional[TrackedFlow]:
        """Forget a flow (on FlowRemoved); returns it if it was tracked."""
        flow = self.flows.pop(flow_id, None)
        if flow is None:
            return None
        for link_id in flow.path_link_ids:
            members = self._link_index.get(link_id)
            if members is not None:
                members.discard(flow_id)
                if not members:
                    del self._link_index[link_id]
        self._forget_links(flow)
        return flow

    def get(self, flow_id: str) -> Optional[TrackedFlow]:
        return self.flows.get(flow_id)

    def flows_on_link(self, link_id: str) -> List[TrackedFlow]:
        """Tracked flows traversing ``link_id``, sorted for determinism."""
        ids = self._link_index.get(link_id, ())
        return [self.flows[fid] for fid in sorted(ids)]

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
