"""Baseline replica- and path-selection schemes from §6.2.

The paper compares Mayflower against four combinations of replica
selection {Nearest, Sinbad-R} × path selection {ECMP, Mayflower's path
scheduler}, plus HDFS (rack-aware nearest + ECMP) for the prototype
comparison:

* :mod:`repro.baselines.selectors` — replica choice: HDFS-style nearest
  (static network distance) and Sinbad-R (dynamic, end-host
  utilization-driven, restricted to the client's pod when co-located);
* :mod:`repro.baselines.monitor` — the end-host bandwidth monitor Sinbad
  relies on (periodically sampled NIC counters, so its view is stale
  between samples — one of the weaknesses §1 calls out);
* :mod:`repro.baselines.schemes` — the ``SCHEMES`` table of that product,
  which both the flow-level runner and the cluster read their wiring
  from, and the flow-level runner's in-process ``Scheme``.
"""

from repro.baselines.monitor import EndHostMonitor
from repro.baselines.schemes import SCHEMES, Scheme, SchemeSpec, scheme_spec
from repro.baselines.selectors import NearestReplicaSelector, SinbadRSelector

__all__ = [
    "EndHostMonitor",
    "NearestReplicaSelector",
    "SCHEMES",
    "Scheme",
    "SchemeSpec",
    "SinbadRSelector",
    "scheme_spec",
]
