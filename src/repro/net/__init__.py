"""Datacenter network substrate.

Provides everything Mayflower's evaluation network needs:

* :mod:`repro.net.topology` — generic node/link graphs plus the canonical
  3-tier (edge/aggregation/core) tree with configurable oversubscription;
* :mod:`repro.net.routing` — enumeration of all equal-length shortest paths
  between hosts (2/4/6 switch hops in the 3-tier tree);
* :mod:`repro.net.fairshare` — max-min fair-share arithmetic (single link
  water-filling and whole-network progressive filling);
* :mod:`repro.net.simulator` — a fluid flow-level discrete-event network
  simulator with per-link byte counters (the stand-in for Mininet);
* :mod:`repro.net.switch` — switch objects exposing OpenFlow-style port and
  flow counters to the SDN controller;
* :mod:`repro.net.ecmp` — hash-based equal-cost multi-path selection;
* :mod:`repro.net.rate_engine` — incremental max-min solver with scoped
  (connected-component) recomputation.
"""

from repro.net.ecmp import EcmpHasher
from repro.net.fairshare import (
    max_min_fair_rates,
    single_link_fair_allocation,
)
from repro.net.links import Link, LinkDirection
from repro.net.rate_engine import IncrementalRateEngine, RateEngineStats
from repro.net.routing import Path, RoutingTable
from repro.net.simulator import Flow, FlowAborted, FlowNetwork
from repro.net.switch import Switch
from repro.net.topology import (
    Host,
    SwitchNode,
    Tier,
    Topology,
    leaf_spine,
    three_tier,
)

__all__ = [
    "EcmpHasher",
    "Flow",
    "FlowAborted",
    "FlowNetwork",
    "Host",
    "IncrementalRateEngine",
    "Link",
    "LinkDirection",
    "Path",
    "RateEngineStats",
    "RoutingTable",
    "Switch",
    "SwitchNode",
    "Tier",
    "Topology",
    "leaf_spine",
    "max_min_fair_rates",
    "single_link_fair_allocation",
    "three_tier",
]
