"""Switch-side delta push for flow counters (the adaptive schedule's channel).

Polling buys every byte of counter freshness with a round trip.
:class:`DeltaPushService` inverts the channel for selected flows: the
adaptive schedule registers a byte-delta **threshold** per
(switch, flow), and the switch proactively reports the flow's cumulative
counter only when it has advanced past the threshold since the last
report — whether that last report was a push or an ordinary poll.

The periodic check runs *on the switch* (it reads local counters), so it
costs no controller-channel messages; only an actual
:class:`~repro.sdn.openflow.CounterPushBatch` crossing the channel does.
A message carries one or more reports, each with a per-subscription
sequence number so the collector can reconcile them idempotently against
its own poll schedule.

``suppress`` models the ``push_loss`` fault: the switch keeps generating
reports but none reach the controller — the collector's poll schedule is
the backstop that keeps every flow observed within its cadence ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.sdn.openflow import CounterPush, CounterPushBatch
from repro.sim.engine import EventLoop, PeriodicTimer

if TYPE_CHECKING:
    from repro.sdn.controller import Controller

#: Estimated OpenFlow message size (bytes) of one unsolicited counter
#: report: a multipart header plus a single flow entry.  Sized like a
#: one-flow OFPMP_FLOW reply — the push is the same record, unasked-for.
PUSH_MESSAGE_BYTES = 100

#: Marginal size (bytes) of each additional flow record in a coalesced
#: multi-flow push: the entry body without the repeated message header.
PUSH_REPORT_BYTES = 40


@dataclass
class PushRegistration:
    """One (switch, flow) push subscription."""

    threshold_bytes: float
    #: Cumulative counter at the last report the controller has (from
    #: either a push or a poll); deltas are measured against this.
    last_reported_bytes: float
    #: Monotonic per-subscription sequence, bumped on every push sent.
    seq: int = 0


class DeltaPushService:
    """Runs the switch-local threshold checks and delivers pushes.

    Parameters
    ----------
    loop:
        The simulation clock (the "switch-local timer").
    controller:
        Used only to read switch liveness and counters; a down switch
        generates nothing.
    sink:
        Where messages land (the collector's reconciliation hook).
    check_interval:
        Switch-local counter check period, seconds.
    """

    def __init__(
        self,
        loop: EventLoop,
        controller: "Controller",
        sink: Callable[[CounterPushBatch], None],
        check_interval: float,
        coalesce: bool = True,
    ) -> None:
        if check_interval <= 0:
            raise ValueError(
                f"check_interval must be positive, got {check_interval}"
            )
        self._loop = loop
        self._controller = controller
        self._sink = sink
        self.check_interval = check_interval
        #: Coalesce same-switch, same-interval threshold crossings into
        #: one message instead of one message per crossing; only matters
        #: under simultaneous crossings.
        self.coalesce = coalesce
        #: switch id -> flow id -> registration
        self._regs: Dict[str, Dict[str, PushRegistration]] = {}
        #: Fault hook (``push_loss``): reports are generated but dropped.
        self.suppress = False
        self.pushes_sent = 0
        self.pushes_lost = 0
        self.batches_sent = 0
        self.reports_coalesced = 0
        self._timer: Optional[PeriodicTimer] = None

    # ------------------------------------------------------------------
    # Subscription management (collector-facing)
    # ------------------------------------------------------------------

    def register(
        self,
        switch_id: str,
        flow_id: str,
        threshold_bytes: float,
        baseline_bytes: float = 0.0,
    ) -> None:
        """Subscribe ``flow_id``'s counter on ``switch_id`` (idempotent).

        ``baseline_bytes`` is the counter value the controller already
        has; the first push fires once the counter exceeds it by the
        threshold.
        """
        if threshold_bytes <= 0:
            raise ValueError(
                f"threshold_bytes must be positive, got {threshold_bytes}"
            )
        per_switch = self._regs.setdefault(switch_id, {})
        if flow_id not in per_switch:
            per_switch[flow_id] = PushRegistration(
                threshold_bytes=threshold_bytes,
                last_reported_bytes=baseline_bytes,
            )
        self._ensure_running()

    def unregister(self, flow_id: str, switch_id: Optional[str] = None) -> None:
        """Drop the flow's subscription(s); idempotent."""
        targets = [switch_id] if switch_id is not None else sorted(self._regs)
        for sid in targets:
            per_switch = self._regs.get(sid)
            if per_switch is not None:
                per_switch.pop(flow_id, None)
                if not per_switch:
                    del self._regs[sid]
        if not self._regs:
            self.stop()

    def note_reported(self, flow_id: str, bytes_sent: float) -> None:
        """Record that the controller saw the counter by other means.

        Called by the collector after a successful poll, so the push
        threshold measures the delta since the *last report of any kind*
        and a poll-then-push sequence cannot double-report one delta.
        """
        for sid in sorted(self._regs):
            reg = self._regs[sid].get(flow_id)
            if reg is not None and bytes_sent > reg.last_reported_bytes:
                reg.last_reported_bytes = bytes_sent

    def registered_flows(self) -> int:
        return sum(len(per_switch) for per_switch in self._regs.values())

    # ------------------------------------------------------------------
    # Switch-local check loop
    # ------------------------------------------------------------------

    def _ensure_running(self) -> None:
        if self._timer is None or self._timer.stopped:
            self._timer = PeriodicTimer(
                self._loop, self.check_interval, self._tick
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def _tick(self) -> None:
        now = self._loop.now
        for switch_id in sorted(self._regs):
            if not self._controller.switch_is_up(switch_id):
                # A dead switch pushes nothing; its flows were aborted
                # and the collector's poll schedule notices the silence.
                continue
            per_switch = self._regs[switch_id]
            switch = self._controller.switch(switch_id)
            crossed: List[CounterPush] = []
            for stat in switch.flow_stats_for(sorted(per_switch)):
                reg = per_switch[stat.flow_id]
                delta = stat.bytes_sent - reg.last_reported_bytes
                if delta < reg.threshold_bytes:
                    continue
                reg.last_reported_bytes = stat.bytes_sent
                reg.seq += 1
                if self.suppress:
                    self.pushes_lost += 1
                    continue
                crossed.append(
                    CounterPush(
                        switch_id=switch_id,
                        flow_id=stat.flow_id,
                        seq=reg.seq,
                        timestamp=now,
                        bytes_sent=stat.bytes_sent,
                        remaining_bits=stat.remaining_bits,
                    )
                )
            if not crossed:
                continue
            # One channel crossing carries every report that fired in
            # this check interval on this switch.
            messages = [crossed] if self.coalesce else [[r] for r in crossed]
            for reports in messages:
                self.pushes_sent += 1
                if len(reports) > 1:
                    self.batches_sent += 1
                    self.reports_coalesced += len(reports) - 1
                self._sink(
                    CounterPushBatch(
                        switch_id=switch_id,
                        timestamp=now,
                        reports=tuple(reports),
                    )
                )
        if not self._regs:
            self.stop()
