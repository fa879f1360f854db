"""OpenFlow-style control messages.

A deliberately small subset of the protocol — exactly the messages the
Mayflower Flowserver exchanges with switches through the controller:
FlowMod (add/delete), FlowRemoved notifications, and the flow-stats
reply.  Port counters are not modelled: Eq. 2 reads flow stats only.
Messages are immutable (a ``FlowStat`` and the per-poll ``FlowStatsReply``
are named tuples); the wire is in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from repro.net.switch import FlowStat


@dataclass(frozen=True)
class FlowModAdd:
    """Install a forwarding entry for ``flow_id`` on ``switch_id``.

    ``out_link_id`` is the directed link the switch must forward the flow
    onto (the OpenFlow "output port" action).
    """

    switch_id: str
    flow_id: str
    out_link_id: str


@dataclass(frozen=True)
class FlowModDelete:
    """Remove the forwarding entry for ``flow_id`` from ``switch_id``."""

    switch_id: str
    flow_id: str


@dataclass(frozen=True)
class FlowRemoved:
    """Switch-to-controller notification that a flow's entry was removed.

    Emitted when a data transfer completes (or is torn down); the
    Flowserver uses these to drop its tracked-flow state immediately
    instead of waiting for the next stats poll.  ``aborted`` marks removals
    caused by a link/switch failure rather than a completed transfer.
    """

    flow_id: str
    src: str
    dst: str
    bytes_sent: float
    duration: float
    aborted: bool = False


class FlowStatsReply(NamedTuple):
    """Reply to a flow-stats request, restricted to locally-sourced flows."""

    switch_id: str
    timestamp: float
    flows: Tuple[FlowStat, ...]
