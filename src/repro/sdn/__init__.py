"""Software-defined networking control plane.

A simplified but faithful OpenFlow-style controller: switches keep flow
tables programmed by FlowMod messages, the controller installs one flow
table entry per switch along an assigned path, observes FlowRemoved
notifications when transfers finish, and answers flow-statistics
queries (the only counters Eq. 2 reads; port counters are not
modelled).  The one Mayflower Flowserver (:mod:`repro.core`) runs
*inside* this controller exactly as the paper runs it inside Floodlight.
"""

from repro.sdn.controller import Controller, FlowRecord
from repro.sdn.flowtable import FlowTable, FlowTableEntry
from repro.sdn.openflow import (
    FlowModAdd,
    FlowModDelete,
    FlowRemoved,
    FlowStatsReply,
)

__all__ = [
    "Controller",
    "FlowModAdd",
    "FlowModDelete",
    "FlowRecord",
    "FlowRemoved",
    "FlowStatsReply",
    "FlowTable",
    "FlowTableEntry",
]
