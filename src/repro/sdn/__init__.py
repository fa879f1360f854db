"""Software-defined networking control plane.

A simplified but faithful OpenFlow-style controller: it installs one
route per transfer (the network forwards along ``Flow.path``), audits
those routes against the flows the network carries, observes
FlowRemoved notifications when transfers finish, and answers
flow-statistics queries (the only counters Eq. 2 reads; port counters
are not modelled).  The one Mayflower Flowserver (:mod:`repro.core`)
runs *inside* this controller exactly as the paper runs it inside
Floodlight.
"""

from repro.sdn.controller import Controller
from repro.sdn.openflow import FlowRemoved, FlowStatsReply

__all__ = [
    "Controller",
    "FlowRemoved",
    "FlowStatsReply",
]
