"""Full-stack cluster wiring — the reproduction of the paper's prototype.

Builds the entire Mayflower deployment in one simulation: the 3-tier
network with its SDN controller and Flowserver, an in-memory nameserver
on one host, a dataserver on every host, and client libraries that
speak RPC for control and ride the flow simulator for data.  The HDFS
comparator of Fig. 8 is the same cluster with rack-aware nearest replica
selection and (optionally) ECMP instead of the Flowserver.
"""

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.dataplane import SimulatedDataPlane
from repro.cluster.experiment import run_cluster_workload
from repro.cluster.planners import SchemeReadPlanner

__all__ = [
    "Cluster",
    "ClusterConfig",
    "SchemeReadPlanner",
    "SimulatedDataPlane",
    "run_cluster_workload",
]
