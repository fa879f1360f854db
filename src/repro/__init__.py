"""Mayflower reproduction: SDN/filesystem co-design (ICDCS 2016).

A complete Python implementation of *Mayflower: Improving Distributed
Filesystem Performance Through SDN/Filesystem Co-Design* (Rizvi, Li,
Wong, Cao, Cassell — University of Waterloo) and every substrate its
evaluation stands on.

Package map
-----------

Listed in layer order: a package imports only the packages above it
(``tests/test_import_hygiene.py`` pins this).

=====================  ====================================================
``repro.sim``          deterministic discrete-event engine, processes,
                       seeded random streams
``repro.net``          datacenter topologies, routing, max-min fair
                       sharing, the fluid flow-level network simulator,
                       switch counters, ECMP
``repro.sdn``          OpenFlow-style controller: routes, flow stats
``repro.core``         **the paper's contribution**: the Flowserver —
                       Eq. 2 cost model, Pseudocode 1/2 selection with
                       update-freeze, §4.3 split reads, stats collection —
                       and ``build_control_plane``, the one wiring of the
                       control plane
``repro.rpc``          latency-modelled control-plane RPC with failure
                       injection
``repro.fs``           the distributed filesystem: nameserver (one
                       server, namespace in memory), leases, dataservers,
                       client library, placement, consistency modes,
                       membership + re-replication
``repro.baselines``    Nearest, Sinbad-R, Hedera-style scheduling
``repro.workload``     §6.1 traffic matrices and trace serialization
``repro.faults``       seeded fault plans and their injector
``repro.cluster``      the fully wired prototype (Fig. 8) and the
                       Flowserver-to-fs adapters (planners, placement)
``repro.telemetry``    tracing, metrics and run analysis
``repro.experiments``  per-figure runners, statistics, reports, charts,
                       the ``python -m repro.experiments`` CLI
``repro.analysis``     simlint, protocheck, the SimSanitizer, explorer
=====================  ====================================================

Quick start::

    from repro.cluster import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(scheme="mayflower"))
    client = cluster.client("pod1-rack0-h0")

See README.md for usage, DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

import os as _os

if _os.environ.get("REPRO_SIMSAN", "") not in ("", "0"):
    # Armed here, above every layer, so any entry point gets it: the
    # layers themselves never import repro.analysis.
    from repro.analysis import simsan as _simsan

    _simsan.arm()
