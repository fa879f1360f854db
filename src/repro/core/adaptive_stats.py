"""The adaptive, push-assisted monitoring schedule (``poll_mode="adaptive"``).

The paper's schedule (:class:`repro.core.stats.FixedSchedule`) polls
*every* edge switch on every tick, so monitoring cost grows linearly with
switch count whether or not anything interesting is happening.
:class:`AdaptiveSchedule` drives the same
:class:`~repro.core.stats.FlowStatsCollector` on a different schedule,
following Floware's balanced-monitoring insight (PAPERS.md):

1. **Per-flow polling-point assignment.**  Every switch on a flow's
   installed path carries its table entry and sees the same cumulative
   counter, so any of them can serve as the flow's monitoring point.
   Flows are assigned to the least-loaded switch on their path
   (deterministic tie-break), spreading stats load across the fabric
   instead of concentrating it on edge switches.

2. **Per-flow adaptive cadence.**  Flows are polled on their own
   schedule, not the global metronome: *fast* (the base interval) while
   a flow is new, near freeze expiry, or its measured bandwidth is still
   moving; *slow* (``slow_factor`` × base) once consecutive measurements
   settle inside a hysteresis band — stable elephants and deep-frozen
   flows (whose measurements ``UPDATEBW`` would suppress anyway) carry
   almost no monitoring cost.

3. **Switch-side delta push.**  Slow flows register a byte-delta
   threshold with their switch (:class:`repro.sdn.push.DeltaPushService`);
   the switch proactively pushes counters that moved beyond it, and a
   pushed observation defers the flow's next poll, so it *replaces* a
   polled one instead of adding to it.

Miss counting, outage handling and unseen-flow expiry are the
collector's and therefore shared with fixed polling.  What this schedule
adds is recovery: a stale switch with no flow due keeps being re-probed
so it is re-promoted when it answers again, and the flows of a switch
that went silent move to another switch on their path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Final, List, Optional

from repro.core.flow_state import FlowStateTable, TrackedFlow
from repro.core.stats import FixedSchedule, FlowStatsCollector, StatsRequest
from repro.sdn.controller import Controller
from repro.sdn.push import DeltaPushService
from repro.sim import instrument
from repro.sim.engine import EventLoop

#: Cadence classes.  ``fast`` = the base poll interval; ``slow`` =
#: ``slow_factor`` × base.  Exported so telemetry consumers and tests can
#: match the span tags emitted per observation.
CADENCE_FAST: Final[str] = "fast"
CADENCE_SLOW: Final[str] = "slow"

#: Relative bandwidth change below which a measurement counts as
#: "stable"; :data:`STABLE_AFTER` consecutive stable measurements demote
#: the flow to slow cadence.
HYSTERESIS: Final[float] = 0.15
STABLE_AFTER: Final[int] = 2

#: Relative-change floor (bps) for the hysteresis comparison, so
#: near-zero measurements do not flap the cadence class on noise.
_HYSTERESIS_FLOOR_BPS: Final[float] = 1e6

#: Flows within this many base intervals of freeze expiry are polled
#: fast so the first post-expiry measurement lands promptly.
FREEZE_GUARD_INTERVALS: Final[float] = 2.0

#: Counter delta (bytes) beyond which a slow flow's switch pushes.
PUSH_THRESHOLD_BYTES: Final[float] = 16e6


@dataclass
class AdaptiveStatsConfig:
    """Tunables of the adaptive schedule; the constants above are the
    rest of its policy, which nothing ever varied.

    Attributes
    ----------
    slow_factor:
        Slow-cadence interval as a multiple of the base poll interval.
        Also the flow's *cadence ceiling*: no tracked flow goes
        unobserved longer than ``slow_factor`` base intervals (plus one
        tick of scheduling granularity) while its switch is answering.
    push_check_interval:
        Switch-local counter check period; ``None`` defaults to the base
        poll interval.
    probe_failed_every:
        Ticks between liveness re-probes of a switch whose stats channel
        went stale (so recovery re-promotes it without waiting for a
        flow to be assigned there again).
    """

    slow_factor: float = 8.0
    push_check_interval: Optional[float] = None
    probe_failed_every: int = 4

    def __post_init__(self) -> None:
        if self.slow_factor < 1.0:
            raise ValueError(f"slow_factor must be >= 1, got {self.slow_factor}")
        if self.probe_failed_every < 1:
            raise ValueError(
                f"probe_failed_every must be >= 1, got {self.probe_failed_every}"
            )


class AdaptiveSchedule(FixedSchedule):
    """Observe exactly the flows that are due: a tick's requests track
    the *flow schedule*, not the switch count, and may be none at all."""

    def __init__(self, config: Optional[AdaptiveStatsConfig] = None) -> None:
        self.config = config or AdaptiveStatsConfig()
        self._assignment: Dict[str, str] = {}
        self._next_due: Dict[str, float] = {}
        self._cadence: Dict[str, str] = {}
        self._streak: Dict[str, int] = {}
        self._last_measured: Dict[str, float] = {}
        self._tick_index = 0
        self._probe_after: Dict[str, int] = {}

    def bind(
        self,
        collector: FlowStatsCollector,
        loop: EventLoop,
        controller: Controller,
        state: FlowStateTable,
    ) -> None:
        super().bind(collector, loop, controller, state)
        self._collector = collector
        self.poll_interval = collector.poll_interval
        self.slow_interval = self.poll_interval * self.config.slow_factor
        #: The switch-side push channel; it belongs to this schedule.
        self.push = DeltaPushService(
            loop,
            controller,
            sink=collector.on_push,
            check_interval=(
                self.config.push_check_interval
                if self.config.push_check_interval is not None
                else self.poll_interval
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cadence_of(self, flow_id: str) -> Optional[str]:
        """The flow's current cadence class (``None`` if untracked)."""
        return self._cadence.get(flow_id)

    def monitoring_point(self, flow_id: str) -> Optional[str]:
        """The switch currently assigned to observe ``flow_id``."""
        return self._assignment.get(flow_id)

    def cadence_ceiling(self) -> float:
        """Max seconds between observations of a healthy tracked flow
        (one slow interval plus one tick of scheduling granularity)."""
        return self.slow_interval + self.poll_interval

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self.push.registered_flows() > 0:
            self.push._ensure_running()

    def stop(self) -> None:
        self.push.stop()

    def forget(self, flow_id: str) -> None:
        self._assignment.pop(flow_id, None)
        self._next_due.pop(flow_id, None)
        self._cadence.pop(flow_id, None)
        self._streak.pop(flow_id, None)
        self._last_measured.pop(flow_id, None)
        self.push.unregister(flow_id)

    # ------------------------------------------------------------------
    # Who is due, where
    # ------------------------------------------------------------------

    def due(self, now: float) -> List[StatsRequest]:
        """One targeted request per switch with flows due, then an empty
        one (the cheapest possible liveness check) per stale switch.

        Without the probes, a switch whose flows were all reassigned
        away (or aborted) would keep a frozen miss counter forever and
        never re-promote after recovery.
        """
        self._tick_index += 1
        due: Dict[str, List[str]] = {}
        for flow_id in sorted(self._state.flows):
            if flow_id not in self._assignment:
                self._assign(flow_id)
                self._next_due[flow_id] = now
                self._cadence[flow_id] = CADENCE_FAST
            when = self._next_due.get(flow_id)
            if when is None or when > now:
                continue
            point = self._assignment.get(flow_id)
            if point is None:
                continue
            due.setdefault(point, []).append(flow_id)
        for flow_id in sorted(self._assignment):
            if flow_id not in self._state:
                self._collector.forget(flow_id)
        requests = [
            StatsRequest(switch_id, due[switch_id], False)
            for switch_id in sorted(due)
        ]
        missed = self._collector.switch_missed_polls
        for switch_id in sorted(missed):
            if (
                missed[switch_id] > 0
                and switch_id not in due
                and self._tick_index >= self._probe_after.get(switch_id, 0)
            ):
                requests.append(StatsRequest(switch_id, [], False))
        return requests

    def unreachable(self, switch_id: str, flow_ids: List[str], now: float) -> None:
        self._probe_after[switch_id] = self._tick_index + self.config.probe_failed_every
        # Move the orphaned flows to another switch on their path (when
        # one is healthy) and retry promptly.
        for flow_id in flow_ids:
            self._assign(flow_id, avoid=switch_id)
            self._next_due[flow_id] = now + self.poll_interval

    def unobserved(self, flow_id: str, now: float) -> None:
        # Look again next tick.  Slow-cadence flows accrue misses only
        # as fast as they are actually looked for, so a stable elephant
        # is never expired just because ticks went by.
        self._next_due[flow_id] = now + self.poll_interval
        self._set_cadence(flow_id, CADENCE_FAST)

    # ------------------------------------------------------------------
    # Polling-point assignment (Floware-style balancing)
    # ------------------------------------------------------------------

    def _assign(self, flow_id: str, avoid: Optional[str] = None) -> None:
        """(Re)assign a flow to the least-loaded switch on its path.

        ``avoid`` deprioritizes a switch that just failed a poll; known
        stale switches (nonzero miss counters) are likewise avoided when
        a clean alternative exists.
        """
        flow = self._state.get(flow_id)
        if flow is None:
            return
        candidates = self._controller.switches_on_path(flow.path_link_ids)
        if not candidates:
            return
        missed = self._collector.switch_missed_polls
        preferred = [c for c in candidates if c != avoid and missed.get(c, 0) == 0]
        pool = preferred or candidates
        # Load ties break toward the source edge switch (the first on
        # the path): that is the switch the Flowserver's
        # `stale_poll_threshold` trust check keys on, so monitoring it
        # keeps degraded-mode demotion as prompt as under fixed polling
        # while load balancing still wins under load.
        load = Counter(self._assignment.values())
        chosen = min(
            pool, key=lambda c: (load[c], 0 if c == candidates[0] else 1, c)
        )
        previous = self._assignment.get(flow_id)
        if previous == chosen:
            return
        if previous is not None:
            self.push.unregister(flow_id, previous)
        self._assignment[flow_id] = chosen
        if self._cadence.get(flow_id) == CADENCE_SLOW:
            self._register_push(chosen, flow_id)

    def _register_push(self, switch_id: str, flow_id: str) -> None:
        """Subscribe the flow's counter, starting a fresh seq window."""
        self._collector.reset_push_window(switch_id, flow_id)
        self.push.register(
            switch_id, flow_id, PUSH_THRESHOLD_BYTES,
            baseline_bytes=self._collector.last_counter(flow_id),
        )

    # ------------------------------------------------------------------
    # What an observation does to the flow's cadence
    # ------------------------------------------------------------------

    def observed(
        self,
        flow: TrackedFlow,
        bytes_sent: float,
        measured_bps: Optional[float],
        now: float,
        origin: str,
    ) -> None:
        """Update the flow's cadence class and schedule its next poll."""
        flow_id = flow.flow_id
        if origin == "poll":
            self.push.note_reported(flow_id, bytes_sent)
        if measured_bps is None:
            # No baseline yet: keep fast until bandwidth can be derived.
            self._streak[flow_id] = 0
            cadence = CADENCE_FAST
        else:
            last = self._last_measured.get(flow_id)
            if last is None or abs(measured_bps - last) > HYSTERESIS * max(
                abs(last), _HYSTERESIS_FLOOR_BPS
            ):
                self._streak[flow_id] = 0
            else:
                self._streak[flow_id] = self._streak.get(flow_id, 0) + 1
            self._last_measured[flow_id] = measured_bps
            cadence = (
                CADENCE_SLOW
                if self._streak[flow_id] >= STABLE_AFTER
                else CADENCE_FAST
            )
        frozen = (
            flow.freezed
            and math.isfinite(flow.freeze_until)
            and flow.freeze_until > now
        )
        if frozen:
            if (
                flow.freeze_until - now
                <= FREEZE_GUARD_INTERVALS * self.poll_interval
            ):
                # Near expiry: the next measurement is the one that
                # re-estimates the flow — make sure it lands promptly.
                cadence = CADENCE_FAST
            else:
                # Deep freeze: UPDATEBW suppresses measurements anyway,
                # so fast polling buys nothing.
                cadence = CADENCE_SLOW
        elif flow.freezed:
            # Freeze expired but no measurement has landed since (this
            # very observation may have been suppressed at exactly the
            # expiry instant): the flow is pending re-estimation, which
            # must not wait out a slow interval.
            cadence = CADENCE_FAST
        self._set_cadence(flow_id, cadence)
        interval = (
            self.poll_interval if cadence == CADENCE_FAST else self.slow_interval
        )
        next_due = now + interval
        if frozen:
            # Never sleep past the freeze expiry re-estimation point.
            next_due = min(
                next_due, max(flow.freeze_until, now + self.poll_interval)
            )
        self._next_due[flow_id] = next_due
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(
                now, "collector.observe", "poll",
                flow=flow_id, origin=origin, cadence=cadence,
                switch=self._assignment.get(flow_id, ""),
            )

    def _set_cadence(self, flow_id: str, cadence: str) -> None:
        if self._cadence.get(flow_id) == cadence:
            return
        self._cadence[flow_id] = cadence
        point = self._assignment.get(flow_id)
        if cadence == CADENCE_SLOW and point is not None:
            self._register_push(point, flow_id)
        elif cadence == CADENCE_FAST:
            self.push.unregister(flow_id)
