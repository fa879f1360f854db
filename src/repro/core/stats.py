"""Flow-stats collection (§3.3.3, §4).

Every ``poll_interval`` seconds the collector sends one wildcard
OFPMP_FLOW request to every edge switch.  A switch reports the flows
sourced at its hosts, so each tracked flow is due at its source edge
switch; one that switch answers without counts one missed observation
toward unseen-flow expiry.  For each reported flow the collector derives
the measured bandwidth from the byte-counter delta since its previous
poll, refreshes the remaining size, and feeds the measurement through
``UPDATEBW`` — so frozen flows keep their analytic estimates until the
freeze expires (Pseudocode 2, lines 12-18).

"The measured bandwidth information is used as an instantaneous snapshot of
the network state.  In between measurements, the Flowserver tracks flow add
and drop requests and recomputes an estimate of the path bandwidth of each
flow after each request."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.flow_state import FlowStateTable
from repro.sdn.controller import Controller, SwitchUnreachableError
from repro.sdn.openflow import FlowStatsReply
from repro.sim import instrument
from repro.sim.engine import EventLoop, PeriodicTimer


@dataclass
class PollRecord:
    """Bookkeeping from the previous observation of one flow (for deltas)."""

    bytes_sent: float
    timestamp: float


#: Estimated OpenFlow message sizes (bytes) for poll-volume accounting:
#: an OFPMP_FLOW stats request, the reply's multipart header, and each
#: flow entry in the reply body.  The absolute numbers only matter
#: relatively — they size the monitoring-channel overhead the paper
#: trades against measurement freshness.
POLL_REQUEST_BYTES = 72
POLL_REPLY_BASE_BYTES = 12
POLL_REPLY_PER_FLOW_BYTES = 88


class FlowStatsCollector:
    """Observes tracked flows and refreshes the Flowserver's flow state.

    Parameters
    ----------
    poll_interval:
        Seconds between ticks; the paper polls at coarse intervals and
        relies on analytic updates in between, so the default is 1 s.
    """

    def __init__(
        self,
        loop: EventLoop,
        controller: Controller,
        state: FlowStateTable,
        poll_interval: float = 1.0,
        auto_start: bool = True,
        expire_unseen_polls: int = 10,
    ):
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self._loop = loop
        self._controller = controller
        self._state = state
        self.poll_interval = poll_interval
        #: A tracked flow absent from this many consecutive replies of its
        #: source edge switch is presumed dead (e.g. the dataserver
        #: failed before the transfer started) and dropped, so stale
        #: entries cannot distort cost estimates forever.  A switch that
        #: does not answer never counts — a monitoring outage must not
        #: evict live flows.  0 disables expiry.
        self.expire_unseen_polls = expire_unseen_polls
        self._previous: Dict[str, PollRecord] = {}
        self._unseen_polls: Dict[str, int] = {}
        self.polls_completed = 0
        self.measurements_applied = 0
        self.measurements_suppressed = 0
        self.flows_expired = 0
        #: Fault-injection hook: while True, ticks run but no switch is
        #: actually queried (models monitoring-channel loss).
        self.suppress_polls = False
        #: Consecutive failed/suppressed polls per switch; reset to 0 on
        #: every successful poll.  The Flowserver reads this to decide
        #: which paths still have trustworthy counters.  Counting polls
        #: (not wall-clock age) keeps fault-free runs byte-identical: the
        #: collector legitimately idles between bursts, which must not
        #: look like staleness.
        self.switch_missed_polls: Dict[str, int] = {}
        #: The switches whose count above is not 0, kept with it.
        self.missed_poll_switches: Set[str] = set()
        #: Cumulative monitoring-channel volume per switch: OpenFlow
        #: messages exchanged and their estimated bytes.  Requests to
        #: unreachable switches still count (the message left the
        #: controller); suppressed cycles send nothing.
        self.poll_messages: Dict[str, int] = {}
        self.poll_bytes: Dict[str, int] = {}
        self.polls_lost = 0
        self.poll_errors = 0
        #: Polled counters that read lower than the flow's record; a
        #: cumulative counter never regresses, so they carry no information.
        self.polls_stale = 0
        self._tick_messages = 0
        self._tick_bytes = 0
        self._timer: Optional[PeriodicTimer] = None
        if auto_start:
            self.start()

    def start(self) -> None:
        if self._timer is None or self._timer.stopped:
            self._timer = PeriodicTimer(self._loop, self.poll_interval, self.poll_once)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def consecutive_misses(self, switch_id: str) -> int:
        """How many polls in a row failed to reach ``switch_id``."""
        return self.switch_missed_polls.get(switch_id, 0)

    def poll_once(self) -> None:
        """One tick: poll every edge switch and observe the replies.

        Unreachable switches (and whole ticks lost to monitoring-channel
        faults) bump per-switch miss counters instead of raising; the
        Flowserver uses those counters to demote the affected paths.
        """
        now = self._loop.now
        seen: Set[str] = set()
        self._tick_messages = 0
        self._tick_bytes = 0
        if self.suppress_polls:
            # Monitoring outage: every edge switch's counters go stale
            # together and nothing is sent.
            self.polls_lost += 1
            for switch_id in self._controller.edge_switch_ids():
                self._note_missed_poll(switch_id)
        else:
            sourced = self._flows_by_source_switch()
            for switch_id in self._controller.edge_switch_ids():
                reply = self._query(switch_id)
                if reply is None:
                    continue
                for stat in reply.flows:
                    if stat.flow_id not in self._state:
                        # Not a tracked (Mayflower-scheduled) flow; ignore,
                        # exactly as the Flowserver only models its own flows.
                        continue
                    seen.add(stat.flow_id)
                    self._observe(
                        stat.flow_id, stat.bytes_sent, stat.remaining_bits, now
                    )
                for flow_id in sourced.get(switch_id, ()):
                    if flow_id not in seen and flow_id in self._state:
                        self._note_unobserved(flow_id)
        # Drop the history of flows that left the state table without a
        # FlowRemoved reaching forget().
        for table in (self._previous, self._unseen_polls):
            for flow_id in [fid for fid in table if fid not in self._state]:
                self.forget(flow_id)
        self.polls_completed += 1
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(
                now, "collector.poll", "poll",
                tracked=len(self._state), seen=len(seen),
                lost=self.suppress_polls,
            )
            if self._tick_messages:
                tel.tracer.counter(
                    now, "flowserver.poll.messages",
                    {"messages": float(self._tick_messages),
                     "bytes": float(self._tick_bytes)},
                    track="poll",
                )
        # Go idle once nothing is tracked so a simulation with no pending
        # work can drain its event queue; the Flowserver restarts polling
        # when it registers the next flow.
        if not self._state.flows:
            self.stop()

    def _flows_by_source_switch(self) -> Dict[str, List[str]]:
        """Tracked flow ids by the edge switch whose wildcard reply must
        name them: the switch their path's first link enters."""
        links = self._controller.network.topology.links
        sourced: Dict[str, List[str]] = {}
        for flow_id, flow in self._state.flows.items():
            if flow.path_link_ids:
                source_switch = links[flow.path_link_ids[0]].dst
                sourced.setdefault(source_switch, []).append(flow_id)
        return sourced

    def _query(self, switch_id: str) -> Optional[FlowStatsReply]:
        """Send one wildcard stats request; ``None`` when the switch is
        unreachable."""
        try:
            reply = self._controller.query_flow_stats(switch_id)
        except SwitchUnreachableError:
            self.poll_errors += 1
            self._note_missed_poll(switch_id)
            # The request left the controller even though no reply came.
            self._account_poll(switch_id, 1, POLL_REQUEST_BYTES)
            return None
        self.switch_missed_polls[switch_id] = 0
        self.missed_poll_switches.discard(switch_id)
        self._account_poll(
            switch_id, 2,
            POLL_REQUEST_BYTES + POLL_REPLY_BASE_BYTES
            + POLL_REPLY_PER_FLOW_BYTES * len(reply.flows),
        )
        return reply

    def _note_missed_poll(self, switch_id: str) -> None:
        self.switch_missed_polls[switch_id] = (
            self.switch_missed_polls.get(switch_id, 0) + 1
        )
        self.missed_poll_switches.add(switch_id)

    def _account_poll(self, switch_id: str, messages: int, nbytes: int) -> None:
        """Attribute one poll exchange's message volume to a switch."""
        self._tick_messages += messages
        self._tick_bytes += nbytes
        self.poll_messages[switch_id] = (
            self.poll_messages.get(switch_id, 0) + messages
        )
        self.poll_bytes[switch_id] = self.poll_bytes.get(switch_id, 0) + nbytes

    def _observe(
        self, flow_id: str, bytes_sent: float, remaining_bits: float, now: float
    ) -> None:
        """Apply one polled counter reading to a tracked flow."""
        previous = self._previous.get(flow_id)
        if previous is not None and bytes_sent < previous.bytes_sent:
            # Cumulative counters never regress: a lower reading is not a
            # later sample of this flow's counter and carries no
            # information, so it must not touch the flow's state.
            self.polls_stale += 1
            return
        self._unseen_polls.pop(flow_id, None)
        self._state.update_remaining(flow_id, remaining_bits)
        if previous is not None and now > previous.timestamp:
            measured_bps = (
                (bytes_sent - previous.bytes_sent)
                * 8.0
                / (now - previous.timestamp)
            )
            if self._state.update_bw_from_stats(flow_id, measured_bps, now):
                self.measurements_applied += 1
            else:
                self.measurements_suppressed += 1
        self._previous[flow_id] = PollRecord(bytes_sent=bytes_sent, timestamp=now)

    def _note_unobserved(self, flow_id: str) -> None:
        """The flow's source edge switch answered without it: one *missed
        observation*, the currency unseen-flow expiry counts in."""
        if self.expire_unseen_polls <= 0:
            return
        misses = self._unseen_polls.get(flow_id, 0) + 1
        if misses >= self.expire_unseen_polls:
            self._state.remove(flow_id)
            self.forget(flow_id)
            self.flows_expired += 1
        else:
            self._unseen_polls[flow_id] = misses

    def forget(self, flow_id: str) -> None:
        """Drop everything kept for a removed flow (called on FlowRemoved)."""
        self._previous.pop(flow_id, None)
        self._unseen_polls.pop(flow_id, None)
