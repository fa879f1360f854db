"""Read-only protocols over the simulated network.

Several layers observe the network without ever mutating it: switches
serve counters, the end-host monitor samples uplink rates, Hedera scans
active flows, telemetry probes read utilization.  Historically each of
them typed (and reached) directly against :class:`~repro.net.simulator.
FlowNetwork`, which welded the whole stack to one concrete simulator
class and made it easy to depend on internals by accident.

:class:`NetworkView` is the structural contract those consumers actually
need — *observation only*.  :class:`FlowNetwork` satisfies it without
registration (:pep:`544` structural typing), and anything else that
implements the same surface (a replay log, a mock, a remote snapshot)
can stand in for it in baselines, telemetry and tests.

Mutation (starting, cancelling, rerouting, failing) is deliberately NOT
part of the view: schedulers act through the SDN controller, never by
poking the simulator.
"""

from __future__ import annotations

from typing import Dict, Mapping, Protocol, Sequence, runtime_checkable

from repro.net.routing import Path
from repro.net.topology import Topology


@runtime_checkable
class FlowView(Protocol):
    """Read-only surface of one active flow."""

    @property
    def flow_id(self) -> str: ...

    @property
    def path(self) -> Path: ...

    @property
    def size_bits(self) -> float: ...

    @property
    def remaining_bits(self) -> float: ...

    @property
    def rate_bps(self) -> float: ...

    @property
    def bytes_sent(self) -> float: ...

    @property
    def src(self) -> str: ...

    @property
    def dst(self) -> str: ...


@runtime_checkable
class NetworkView(Protocol):
    """Observation-only surface of the simulated network.

    The contract every non-mutating consumer codes against:

    * **topology** — static structure (links, capacities, racks);
    * **flows** — the live flow set and per-link membership;
    * **ground truth** — instantaneous max-min rates and link loads;
    * **liveness** — link/path up-down state;
    * **counters** — ``snapshot_progress`` brings every flow's byte
      counter up to the current instant before a flow-stats read, like a
      hardware counter latch.
    """

    @property
    def topology(self) -> Topology: ...

    @property
    def active_flows(self) -> Mapping[str, FlowView]: ...

    def flows_on_link(self, link_id: str) -> Sequence[FlowView]: ...

    def link_utilization_bps(self, link_id: str) -> float: ...

    def link_is_up(self, link_id: str) -> bool: ...

    def path_is_up(self, path: Path) -> bool: ...

    def snapshot_progress(self) -> None: ...

    def ground_truth_rates(self) -> Dict[str, float]: ...
