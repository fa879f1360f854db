"""Mayflower's core contribution: the Flowserver.

The Flowserver runs inside the SDN controller and couples filesystem
decisions (which replica to read) with network decisions (which path to
route the read over).  This package implements:

* :mod:`repro.core.flow_state` — the Flowserver's model of every
  Mayflower-related flow, including the *update-freeze* state from
  Pseudocode 2;
* :mod:`repro.core.cost` — the path cost function of Eq. 2: the new flow's
  completion time plus the induced completion-time increase of existing
  flows, computed with per-link max-min fair-share estimates;
* :mod:`repro.core.selection` — Pseudocode 1: evaluate every
  (replica, shortest-path) pair and commit the cheapest;
* :mod:`repro.core.multireplica` — §4.3: split a read across two replicas
  when the combined share beats the single best flow;
* :mod:`repro.core.stats` — the flow-stats collector that polls every
  edge switch every tick and refreshes bandwidth/remaining-size
  estimates from the byte counters;
* :mod:`repro.core.flowserver` — the service tying it all together;
* :mod:`repro.core.control_plane` — :func:`build_control_plane`, the one
  wiring of loop, network, controller and the one Flowserver that every
  deployment uses.
"""

from repro.core.control_plane import ControlPlane, build_control_plane
from repro.core.cost import CostBreakdown, estimate_path_share, flow_cost
from repro.core.flow_state import FlowStateTable, TrackedFlow
from repro.core.flowserver import Assignment, Flowserver, FlowserverConfig, SelectionResult
from repro.core.multireplica import MultiReplicaPlanner
from repro.core.selection import PathChoice, select_replica_and_path
from repro.core.stats import FlowStatsCollector

__all__ = [
    "Assignment",
    "ControlPlane",
    "CostBreakdown",
    "FlowStateTable",
    "FlowStatsCollector",
    "Flowserver",
    "FlowserverConfig",
    "MultiReplicaPlanner",
    "PathChoice",
    "SelectionResult",
    "TrackedFlow",
    "build_control_plane",
    "estimate_path_share",
    "flow_cost",
    "select_replica_and_path",
]
