"""Directed network links.

Every physical cable in the topology is modelled as two independent
:class:`Link` objects, one per direction, because datacenter links are
full-duplex: a read flow from a dataserver consumes only the
dataserver-to-client direction.  A link knows its capacity and whether it
is up, and carries no per-flow state: which flows cross it is
:meth:`repro.net.simulator.FlowNetwork.flows_on`.
"""

from __future__ import annotations

import enum


class LinkDirection(enum.Enum):
    """Orientation of a directed link relative to the network core."""

    UP = "up"  # towards aggregation/core (used by remote *writes*/requests)
    DOWN = "down"  # towards the hosts (used by read data transfers)
    FLAT = "flat"  # host<->switch edge links


class Link:
    """One direction of a physical cable.

    Parameters
    ----------
    link_id:
        Unique string id, conventionally ``"src->dst"``.
    src, dst:
        Node ids of the endpoints.
    capacity_bps:
        Capacity in bits per second.
    direction:
        Coarse orientation label used by baselines (e.g. Sinbad-R inspects
        core-facing links).
    """

    __slots__ = (
        "link_id",
        "src",
        "dst",
        "capacity_bps",
        "direction",
        "up",
    )

    def __init__(
        self,
        link_id: str,
        src: str,
        dst: str,
        capacity_bps: float,
        direction: LinkDirection = LinkDirection.FLAT,
    ):
        if capacity_bps <= 0:
            raise ValueError(f"link {link_id!r}: capacity must be positive, got {capacity_bps}")
        self.link_id = link_id
        self.src = src
        self.dst = dst
        self.capacity_bps = float(capacity_bps)
        self.direction = direction
        #: Administrative/physical state.  A down link carries no flows:
        #: the simulator aborts flows traversing it when it fails and
        #: refuses to start new flows over it until it comes back up.
        self.up = True
