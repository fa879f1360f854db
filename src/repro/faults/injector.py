"""Arms a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The injector translates declarative fault events into concrete hooks:
link/switch failures go through the SDN controller (which aborts the
affected flows and notifies listeners), process crashes go through the RPC
fabric's down-endpoint set, monitoring loss flips the stats collector's
suppression flag, and delay spikes scale the fabric's control latency.
All events run as ordinary simulation callbacks, so a fault storm is just
more events on the same deterministic clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim import instrument

if TYPE_CHECKING:
    from repro.core.stats import FlowStatsCollector
    from repro.fs.dataserver import Dataserver
    from repro.fs.leases import LeaseManager
    from repro.rpc.fabric import RpcFabric
    from repro.sdn.controller import Controller
    from repro.sim.engine import EventLoop


@dataclass(frozen=True)
class AppliedEvent:
    """Journal entry: one fault event that actually fired."""

    time: float
    kind: str
    target: str
    detail: str = ""


class FaultInjector:
    """Drives fault events into a cluster's control and data planes.

    Parameters
    ----------
    loop:
        The simulation clock shared by every component.
    controller:
        SDN controller (link/switch/host failure surface).
    fabric:
        RPC fabric (process crashes and delay spikes).
    collector:
        The Flowserver's stats collector (monitoring-loss faults);
        ``None`` for clusters without a Flowserver, where those events
        no-op.
    lease_manager:
        The nameserver's :class:`repro.fs.leases.LeaseManager`
        (``lease_expire`` faults); ``None`` where no lease service is
        wired, and those events no-op.
    dataservers:
        Optional mapping of host id to dataserver.  ``lease_expire``
        additionally drops the target host's locally-cached grants, so
        the revocation is a *full* one: the manager forgets the lease
        and the (still-running) holder cannot keep committing from its
        cache — its next commit re-acquires and sees the epoch bump.
    """

    def __init__(
        self,
        loop: "EventLoop",
        controller: "Controller",
        fabric: "RpcFabric",
        collector: Optional["FlowStatsCollector"] = None,
        lease_manager: Optional["LeaseManager"] = None,
        dataservers: Optional[Dict[str, "Dataserver"]] = None,
    ) -> None:
        self._loop = loop
        self._controller = controller
        self._fabric = fabric
        self._collector = collector
        self._lease_manager = lease_manager
        self._dataservers = dict(dataservers or {})
        self.events_applied = 0
        self.journal: List[AppliedEvent] = []
        self.flows_aborted_by_faults = 0
        instrument.notify_component("injector", self)

    @classmethod
    def for_cluster(cls, cluster: Any) -> "FaultInjector":
        """Wire an injector to an assembled :class:`repro.cluster.Cluster`."""
        return cls(
            cluster.loop,
            cluster.controller,
            cluster.fabric,
            collector=(
                cluster.flowserver.collector
                if cluster.flowserver is not None
                else None
            ),
            lease_manager=cluster.lease_manager,
            dataservers=getattr(cluster, "dataservers", None),
        )

    def arm(self, plan: FaultPlan) -> int:
        """Schedule every event (and auto-recovery) on the loop.

        Returns the number of events scheduled.  Before anything is
        scheduled, the whole plan is checked: an event in the plan's past
        (a plan must be armed before the clock reaches its first event)
        or one whose target the topology does not have raises
        :class:`ValueError`.
        """
        events = plan.expanded()
        topology = self._controller.network.topology
        # The first word of a kind says what its target must name; the
        # other kinds (stats_poll_*, rpc_delay_*) are global and take "".
        targets = {"link": topology.links, "switch": topology.switches,
                   "dataserver": topology.hosts, "lease": topology.hosts}
        for event in events:
            if event.time < self._loop.now:
                raise ValueError(
                    f"fault event {event.kind!r} at t={event.time} is in the "
                    f"past (now={self._loop.now})"
                )
            if event.target not in targets.get(event.kind.split("_", 1)[0], ("",)):
                raise ValueError(
                    f"fault event {event.kind!r} at t={event.time} has an "
                    f"unknown target {event.target!r}"
                )
        for event in events:
            self._loop.call_at(event.time, self._apply, event)
        return len(events)

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_do_{event.kind}")
        detail = handler(event) or ""
        self.events_applied += 1
        self.journal.append(
            AppliedEvent(
                time=self._loop.now, kind=event.kind, target=event.target,
                detail=detail,
            )
        )
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(self._loop.now, f"fault.{event.kind}", "fault",
                        target=event.target, detail=detail)

    def _do_link_down(self, event: FaultEvent) -> str:
        victims = self._controller.fail_link(event.target)
        self.flows_aborted_by_faults += len(victims)
        return f"aborted {len(victims)} flow(s)"

    def _do_link_up(self, event: FaultEvent) -> str:
        self._controller.restore_link(event.target)
        return ""

    def _do_switch_fail(self, event: FaultEvent) -> str:
        victims = self._controller.fail_switch(event.target)
        self.flows_aborted_by_faults += len(victims)
        return f"aborted {len(victims)} flow(s)"

    def _do_switch_recover(self, event: FaultEvent) -> str:
        self._controller.recover_switch(event.target)
        return ""

    def _do_dataserver_crash(self, event: FaultEvent) -> str:
        self._fabric.set_down(event.target)
        victims = self._controller.fail_host(event.target)
        self.flows_aborted_by_faults += len(victims)
        return f"aborted {len(victims)} flow(s)"

    def _do_dataserver_restart(self, event: FaultEvent) -> str:
        self._fabric.set_down(event.target, down=False)
        self._controller.recover_host(event.target)
        return ""

    def _set_poll_suppression(self, suppress: bool) -> str:
        if self._collector is None:
            return "no collector (scheme without Flowserver); no-op"
        self._collector.suppress_polls = suppress
        return ""

    def _do_stats_poll_loss(self, event: FaultEvent) -> str:
        return self._set_poll_suppression(True)

    def _do_stats_poll_restore(self, event: FaultEvent) -> str:
        return self._set_poll_suppression(False)

    def _do_rpc_delay_spike(self, event: FaultEvent) -> str:
        self._fabric.delay_factor = max(1.0, event.magnitude)
        return f"x{self._fabric.delay_factor:g}"

    def _do_rpc_delay_restore(self, event: FaultEvent) -> str:
        self._fabric.delay_factor = 1.0
        return ""

    def _do_lease_expire(self, event: FaultEvent) -> str:
        if self._lease_manager is None:
            return "no lease manager wired; no-op"
        expired = self._lease_manager.expire_host(event.target)
        dataserver = self._dataservers.get(event.target)
        revoked = dataserver.revoke_leases() if dataserver is not None else 0
        return f"expired {expired} lease(s), revoked {revoked} cached grant(s)"
