"""The SDN controller.

Plays the role Floodlight plays in the paper's prototype: it owns the
switch connections, installs the route of every transfer it starts,
relays flow-statistics requests, and fans FlowRemoved notifications out
to registered listeners (the Flowserver chief among them).

Forwarding itself is the network's ``Flow.path``; the controller keeps
one installed route per flow.  :meth:`Controller.start_transfer` installs
the route and starts the transfer atomically, and drops the route when
the transfer completes or aborts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.routing import Path
from repro.net.simulator import Flow, FlowAborted, FlowNetwork
from repro.net.switch import Switch, build_switches
from repro.net.topology import Tier
from repro.sim import instrument
from repro.sdn.openflow import FlowRemoved, FlowStatsReply


class SwitchUnreachableError(RuntimeError):
    """A statistics request was sent to a failed/disconnected switch."""


class Controller:
    """Centralized network controller over a simulated network.

    Parameters
    ----------
    network:
        The flow-level network simulation (provides time and transfers).
    """

    def __init__(self, network: FlowNetwork):
        self._network = network
        self._loop = network.loop
        self._switches: Dict[str, Switch] = build_switches(network)
        #: The installed route of every transfer in flight.
        self._routes: Dict[str, Path] = {}
        self._removed_listeners: List[Callable[[FlowRemoved], None]] = []
        self._down_switches: Set[str] = set()
        # The topology is static once built, so the poll order is too.
        self._edge_switch_ids = tuple(
            s.switch_id for s in network.topology.switches_in_tier(Tier.EDGE)
        )
        self.transfers_started = 0
        self.transfers_completed = 0
        self.flows_aborted = 0
        instrument.notify_component("controller", self)

    # ------------------------------------------------------------------
    # Topology / switch access
    # ------------------------------------------------------------------

    @property
    def network(self) -> FlowNetwork:
        return self._network

    def edge_switch_ids(self) -> Tuple[str, ...]:
        """Every edge switch, sorted by id."""
        return self._edge_switch_ids

    # ------------------------------------------------------------------
    # Flow programming
    # ------------------------------------------------------------------

    def start_transfer(
        self,
        flow_id: str,
        path: Path,
        size_bits: float,
        on_complete: Optional[Callable[[Flow], None]] = None,
        on_abort: Optional[Callable[[Flow, FlowAborted], None]] = None,
        job_id: Optional[str] = None,
    ) -> Flow:
        """Install the route and start the data transfer.

        When the transfer completes the controller drops the route, emits
        a :class:`FlowRemoved` to all listeners, and then invokes
        ``on_complete``.  If a link on the path fails mid-transfer the
        route is likewise dropped, a :class:`FlowRemoved` with
        ``aborted=True`` is emitted, and ``on_abort`` (if any) runs.
        A duplicate ``flow_id`` raises ``ValueError`` and leaves the
        first flow's route in place.
        """
        if flow_id in self._routes:
            raise ValueError(f"flow {flow_id!r} already installed")
        self._routes[flow_id] = path
        self.transfers_started += 1
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.begin(self._loop.now, "transfer", "transfer", flow_id,
                      track="transfers", src=path.src, dst=path.dst,
                      size_bits=size_bits)

        def _finished(flow: Flow) -> None:
            del self._routes[flow_id]
            removed = FlowRemoved(
                flow_id=flow.flow_id,
                src=flow.src,
                dst=flow.dst,
                bytes_sent=flow.bytes_sent,
                duration=(flow.end_time or self._loop.now) - flow.start_time,
            )
            self.transfers_completed += 1
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.end(self._loop.now, "transfer", "transfer", flow_id,
                        track="transfers", outcome="completed",
                        bytes_sent=flow.bytes_sent)
            for listener in list(self._removed_listeners):
                listener(removed)
            if on_complete is not None:
                on_complete(flow)

        def _aborted(flow: Flow, exc: FlowAborted) -> None:
            del self._routes[flow_id]
            self.flows_aborted += 1
            removed = FlowRemoved(
                flow_id=flow.flow_id,
                src=flow.src,
                dst=flow.dst,
                bytes_sent=flow.bytes_sent,
                duration=self._loop.now - flow.start_time,
                aborted=True,
            )
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.end(self._loop.now, "transfer", "transfer", flow_id,
                        track="transfers", outcome="aborted",
                        reason=str(exc), bytes_sent=flow.bytes_sent)
            for listener in list(self._removed_listeners):
                listener(removed)
            if on_abort is not None:
                on_abort(flow, exc)

        try:
            return self._network.start_flow(
                flow_id,
                path,
                size_bits,
                on_complete=_finished,
                on_abort=_aborted,
                job_id=job_id,
            )
        except Exception:
            if tel is not None:
                tel.end(self._loop.now, "transfer", "transfer", flow_id,
                        track="transfers", outcome="failed-to-start")
            del self._routes[flow_id]
            raise

    def reroute_transfer(self, flow_id: str, new_path: Path) -> None:
        """Move an in-flight transfer to a new path, replacing its route.

        This is the primitive a centralized flow scheduler (Hedera/MicroTE
        style) uses: the fluid flow continues with its remaining volume
        on the new route.
        """
        if flow_id not in self._routes:
            raise KeyError(f"flow {flow_id!r} is not installed")
        self._network.reroute_flow(flow_id, new_path)
        self._routes[flow_id] = new_path

    # ------------------------------------------------------------------
    # Notifications
    # ------------------------------------------------------------------

    def add_flow_removed_listener(self, listener: Callable[[FlowRemoved], None]) -> None:
        """Subscribe to FlowRemoved events (e.g. the Flowserver)."""
        self._removed_listeners.append(listener)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def fail_link(self, link_id: str) -> List[Flow]:
        """Take one directed link down, aborting the flows routed over it.

        Abort callbacks (and the matching ``FlowRemoved(aborted=True)``
        notifications) fire before this returns; the list of victims is
        returned for logging.
        """
        victims = self._network.fail_link(link_id)
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(self._loop.now, "net.link_down", "net",
                        link=link_id, victims=len(victims))
        return victims

    def restore_link(self, link_id: str) -> None:
        """Bring a previously failed link back into service."""
        self._network.restore_link(link_id)
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(self._loop.now, "net.link_up", "net", link=link_id)

    def fail_switch(self, switch_id: str) -> List[Flow]:
        """Fail a switch: all adjacent links go down and stats requests
        to it raise :class:`SwitchUnreachableError` until recovery."""
        if switch_id not in self._switches:
            raise KeyError(f"unknown switch {switch_id!r}")
        self._down_switches.add(switch_id)
        victims = self._network.fail_node_links(switch_id)
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(self._loop.now, "net.switch_down", "net",
                        switch=switch_id, victims=len(victims))
        return victims

    def recover_switch(self, switch_id: str) -> None:
        """Bring a failed switch (and its links) back into service."""
        if switch_id not in self._switches:
            raise KeyError(f"unknown switch {switch_id!r}")
        self._down_switches.discard(switch_id)
        self._network.restore_node_links(switch_id)
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(self._loop.now, "net.switch_up", "net",
                        switch=switch_id)

    def fail_host(self, host_id: str) -> List[Flow]:
        """Fail a host's access links (both directions), aborting its flows."""
        return self._network.fail_node_links(host_id)

    def recover_host(self, host_id: str) -> None:
        """Restore a host's access links."""
        self._network.restore_node_links(host_id)

    def all_paths_up(self) -> bool:
        """Whether no link and no switch is down, so that
        :meth:`path_is_up` holds for every path."""
        return not (self._down_switches or self._network.down_links)

    def path_is_up(self, path: Path) -> bool:
        """True when every link on the path (and every switch it crosses)
        is currently in service."""
        if not self._network.path_is_up(path):
            return False
        if not self._down_switches:
            # fail_switch takes every adjacent link down, so only a
            # switch that is down can reject a path whose links are up.
            return True
        for link_id in path.link_ids:
            link = self._network.topology.links[link_id]
            for node in (link.src, link.dst):
                if node in self._down_switches:
                    return False
        return True

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def query_flow_stats(self, switch_id: str) -> FlowStatsReply:
        """Fetch counters for flows sourced at hosts on one edge switch."""
        if switch_id in self._down_switches:
            raise SwitchUnreachableError(f"switch {switch_id!r} is unreachable")
        switch = self._switches[switch_id]
        return FlowStatsReply(
            switch_id=switch_id,
            timestamp=self._loop.now,
            flows=tuple(switch.flow_stats()),
        )

    def verify_tables_consistent(self) -> List[str]:
        """Audit the installed routes against the flows the network carries.

        A route is *stale* when the network no longer carries its flow,
        and *differs* when its links are not the flow's path.  Returns
        human-readable problems (empty when consistent); used by tests,
        the SimSanitizer and failure-injection experiments.
        """
        problems = []
        active = self._network.active_flows
        for flow_id in sorted(self._routes):
            flow = active.get(flow_id)
            if flow is None:
                problems.append(f"flow {flow_id}: stale route, no such flow in the network")
            elif flow.path.link_ids != self._routes[flow_id].link_ids:
                problems.append(f"flow {flow_id}: route differs from the flow's path")
        return problems
