"""The five workloads: frozen constants and why each exists.

The constants are part of the benchmark.  They were sized so one rep's
timed section takes a little over four host seconds at the commit that
introduced the ledger (2 cores, Python 3.11); see README.md for how the
sizes were derived from the issue's and which were corrected.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, NamedTuple, Tuple

_TESTBED = dict(pods=4, racks_per_pod=4, hosts_per_rack=4, oversubscription=8.0)
_SCALE_OUT = dict(pods=16, racks_per_pod=16, hosts_per_rack=4, oversubscription=8.0)


class Workload(NamedTuple):
    module: str
    rep_class: str
    #: The constants (op counts) that ``--scale`` multiplies.
    scaled: Tuple[str, ...]
    constants: Dict[str, Any]
    why: str


WORKLOADS: Dict[str, Workload] = {
    "flow_reads_64": Workload(
        "flow_reads", "FlowReads", ("jobs",),
        dict(_TESTBED, files=100, jobs=3600, arrival_rate_per_server=0.07,
             zipf_skew=1.1, locality=(0.5, 0.3, 0.2),
             guard_jobs=1000, guard_floor=2.0),
        "paper testbed and load (Figs. 4-7): Eq. 2 cost evaluation and the "
        "rate solver share the host time, routing is cached, no RPC or fs work",
    ),
    "flow_reads_1024": Workload(
        "flow_reads", "FlowReads", ("jobs",),
        dict(_SCALE_OUT, files=1600, jobs=1050, arrival_rate_per_server=0.015,
             zipf_skew=0.8, locality=(0.5, 0.3, 0.2)),
        "scale-out: nearly every job is a first-seen host pair, so networkx "
        "path enumeration and polling 256 edge switches dominate",
    ),
    "net_churn_1024": Workload(
        "net_churn", "NetChurn", ("flows",),
        dict(_SCALE_OUT, flows=11000, arrivals_per_host_s=0.25,
             rack_local_fraction=0.4, flow_mib=(4, 16, 64), pair_pool=2500),
        "bare FlowNetwork at 1024 hosts: rate solving and event scheduling "
        "only, paths resolved in set-up, no control plane (core.* stays 0)",
    ),
    "dfs_meta_64": Workload(
        "dfs", "DfsMeta", ("composites",),
        dict(_TESTBED, composites=6600, composites_per_sim_s=200.0,
             rpc_jitter_s=0.00005, drain_sim_s=60.0),
        "metadata only (create, stat x3, move, stat, delete): sim processes, "
        "rpc, nameserver and kvstore do the work, net and core do none",
    ),
    "dfs_mixed_64": Workload(
        "dfs", "DfsMixed", ("ops",),
        dict(_TESTBED, files=100, file_mib=256, append_mib=16, ops=2000,
             arrival_rate_per_server=0.07, zipf_skew=1.1, append_fraction=0.3,
             drain_sim_s=600.0),
        "Eq. 2 reads compete with Flowserver-planned 3-replica append "
        "fan-outs on the same files: the write path's cost to readers",
    ),
}


def params_for(name: str, scale: float) -> Dict[str, Any]:
    """The workload's constants with its op counts multiplied by ``scale``."""
    workload = WORKLOADS[name]
    params = dict(workload.constants)
    for key in workload.scaled:
        params[key] = max(1, round(params[key] * scale))
    return params


def load(name: str):
    """The rep class of a workload (imports ``repro``)."""
    workload = WORKLOADS[name]
    module = importlib.import_module(f"ledgerlib.{workload.module}")
    return getattr(module, workload.rep_class)
