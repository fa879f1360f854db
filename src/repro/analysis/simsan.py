"""SimSanitizer: opt-in runtime invariant checking for the simulation.

When armed (``REPRO_SIMSAN=1`` or ``pytest --simsan``), components
register themselves on construction and the sanitizer re-verifies five
cross-layer invariants **after every engine event**:

1. **Capacity feasibility** — the fluid simulator's max-min rates never
   oversubscribe any link (ground truth must stay physical).
2. **Route consistency** — ``Controller.verify_tables_consistent()``
   finds every installed route on a flow the network carries, over the
   flow's own path.
3. **Freeze discipline** (Pseudocode 2) — a flow frozen by ``SETBW``
   never regresses to unfrozen while its freeze is still live, except
   through a stats poll after expiry (or the ``enable_freeze=False``
   ablation, which is exempt by design).
4. **RNG stream isolation** — each named ``RandomStreams`` stream's
   Mersenne state changes only when that stream was drawn from, and no
   two names share a generator object.
5. **Link-memo validity** — every entry of a Flowserver's
   ``FlowStateTable.link_memo`` equals a fresh ``flows_on_link``, fill
   order and water-fill of the current table, i.e. every mutation
   dropped the entries of the links it touched.

Violations raise :class:`SimSanError` (an ``AssertionError`` subclass) at
the exact event that broke the invariant, which is worth far more than a
wrong fingerprint three layers later.  Registries hold weak references,
so arming the sanitizer never extends component lifetimes.

The sanitizer is one subscriber on the :mod:`repro.sim.instrument` event
bus; the telemetry layer (:mod:`repro.telemetry`) is another, so both can
be armed in the same run without knowing about each other.
"""

from __future__ import annotations

import math
import os
import weakref
from typing import Any, Dict, List, Optional, Tuple

#: Relative tolerance for capacity feasibility (float water-filling).
_CAPACITY_REL_TOL = 1e-6


class SimSanError(AssertionError):
    """A simulation invariant was violated while the sanitizer was armed."""


class SimSanitizer:
    """Cross-layer invariant checker driven by engine post-event hooks."""

    def __init__(self) -> None:
        self._networks: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._controllers: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._flowservers: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._streams: "weakref.WeakSet[Any]" = weakref.WeakSet()
        # flowserver -> {flow_id: (freezed, freeze_until)}
        self._freeze_seen: "weakref.WeakKeyDictionary[Any, Dict[str, Tuple[bool, float]]]" = (
            weakref.WeakKeyDictionary()
        )
        # streams -> {name: (state_digest, draw_count)}
        self._stream_seen: "weakref.WeakKeyDictionary[Any, Dict[str, Tuple[int, int]]]" = (
            weakref.WeakKeyDictionary()
        )
        self.events_checked = 0
        self.checks_run = 0

    # ------------------------------------------------------------------
    # Registration (via repro.sim.instrument)
    # ------------------------------------------------------------------

    def register(self, kind: str, component: Any) -> None:
        if kind == "network":
            self._networks.add(component)
        elif kind == "controller":
            self._controllers.add(component)
        elif kind == "flowserver":
            self._flowservers.add(component)
        elif kind == "streams":
            self._streams.add(component)

    # ------------------------------------------------------------------
    # The post-event sweep
    # ------------------------------------------------------------------

    def after_event(self, loop: Any) -> None:
        """Verify every invariant scoped to ``loop`` (streams are global)."""
        self.events_checked += 1
        for network in list(self._networks):
            if network.loop is loop:
                self.check_network(network)
        for controller in list(self._controllers):
            if controller.network.loop is loop:
                self.check_controller(controller)
        for flowserver in list(self._flowservers):
            if flowserver.loop is loop:
                self.check_flowserver(flowserver)
        for streams in list(self._streams):
            self.check_streams(streams)

    # ------------------------------------------------------------------
    # Individual invariants (callable directly from tests)
    # ------------------------------------------------------------------

    def check_network(self, network: Any) -> None:
        """Invariant 1: max-min rates are capacity-feasible on every link."""
        self.checks_run += 1
        rates = network.ground_truth_rates()
        for flow_id, rate in rates.items():
            if rate < 0:
                raise SimSanError(
                    f"simsan[t={network.loop.now:.6f}]: flow {flow_id!r} has "
                    f"negative rate {rate!r}"
                )
        # Loads come from the flows' own paths, not from the network's
        # per-link index, so a leak in that index cannot hide a breach.
        on_link: Dict[str, List[str]] = {}
        for flow_id, flow in sorted(network.active_flows.items()):
            for link_id in dict.fromkeys(flow.path.link_ids):
                on_link.setdefault(link_id, []).append(flow_id)
        links = network.topology.links
        for link_id, flow_ids in on_link.items():
            capacity = links[link_id].capacity_bps
            load = sum(rates[fid] for fid in flow_ids)
            if load > capacity * (1.0 + _CAPACITY_REL_TOL):
                raise SimSanError(
                    f"simsan[t={network.loop.now:.6f}]: link {link_id} "
                    f"oversubscribed: {load:.1f} bps allocated over "
                    f"{capacity:.1f} bps capacity ({flow_ids})"
                )

    def check_controller(self, controller: Any) -> None:
        """Invariant 2: the controller's routes match the network's flows."""
        self.checks_run += 1
        problems = controller.verify_tables_consistent()
        if problems:
            raise SimSanError(
                f"simsan[t={controller.network.loop.now:.6f}]: routes inconsistent: "
                + "; ".join(problems)
            )

    def check_flowserver(self, flowserver: Any) -> None:
        """Invariant 3: Pseudocode 2 freeze state never silently regresses."""
        self.checks_run += 1
        state = flowserver.state
        now = flowserver.loop.now
        current = {
            flow_id: (flow.freezed, flow.freeze_until)
            for flow_id, flow in state.flows.items()
        }
        if flowserver.config.enable_freeze:
            previous = self._freeze_seen.get(flowserver, {})
            for flow_id, (was_frozen, was_until) in previous.items():
                entry = current.get(flow_id)
                if entry is None:
                    continue  # flow removed: fine
                frozen_now, _ = entry
                if was_frozen and not frozen_now and now <= was_until:
                    raise SimSanError(
                        f"simsan[t={now:.6f}]: flow {flow_id!r} regressed "
                        f"frozen->unfrozen before its freeze expired at "
                        f"{was_until:.6f} and without a stats poll"
                    )
        self._freeze_seen[flowserver] = current
        self.check_link_memo(state, now)

    def check_link_memo(self, state: Any, now: float) -> None:
        """Invariant 5: every link-memo entry matches the current table."""
        from repro.net.fairshare import single_link_fair_allocation

        for link_id, entry in state.link_memo.items():
            members = state.flows_on_link(link_id)
            demands = [f.bw_bps for f in members]
            stale = [f.flow_id for f in entry.members] != [f.flow_id for f in members]
            stale = stale or entry.demands != demands
            # The fill order single_link_fair_allocation would sort into.
            fill = sorted(
                (i for i, d in enumerate(demands) if d > 0), key=lambda i: demands[i]
            )
            negative = any(d < 0 for d in demands)
            stale = stale or entry.fill != (None if negative else fill)
            stale = stale or entry.fill_demands != [demands[i] for i in fill]
            for capacity, share in entry.probe.items():
                fresh = single_link_fair_allocation(capacity, demands + [math.inf])
                stale = stale or share != fresh[-1]  # simlint: ignore[DET004] bit-identity
            for (capacity, demand), (allocation, squeezed) in entry.newcomer.items():
                fresh = single_link_fair_allocation(capacity, demands + [demand])
                stale = stale or allocation != fresh
                stale = stale or squeezed != [
                    (f.flow_id, slot) for f, slot in zip(members, fresh) if slot < f.bw_bps
                ]
            if stale:
                raise SimSanError(
                    f"simsan[t={now:.6f}]: link memo of {link_id} is stale: "
                    f"memo members {[f.flow_id for f in entry.members]} "
                    f"demands {entry.demands} fill {entry.fill}, table members "
                    f"{[f.flow_id for f in members]} demands {demands}"
                )

    def check_streams(self, streams: Any) -> None:
        """Invariant 4: named streams stay isolated and draw-accounted."""
        self.checks_run += 1
        live = streams.stream_snapshot()
        ids = [id(rng) for _, rng, _ in live]
        if len(set(ids)) != len(ids):
            raise SimSanError(
                f"simsan: {streams!r} hands the same generator object to "
                "multiple stream names; streams must be independent"
            )
        previous = self._stream_seen.get(streams, {})
        current: Dict[str, Tuple[int, int]] = {}
        for name, rng, draws in live:
            digest = hash(rng.getstate())
            current[name] = (digest, draws)
            seen = previous.get(name)
            if seen is None:
                continue
            old_digest, old_draws = seen
            if digest != old_digest and draws == old_draws:
                raise SimSanError(
                    f"simsan: stream {name!r} of {streams!r} changed state "
                    "without recording a draw (external reseed or shared "
                    "generator?)"
                )
        self._stream_seen[streams] = current


# ----------------------------------------------------------------------
# Module-level arm/disarm API
# ----------------------------------------------------------------------

_active: Optional[SimSanitizer] = None
#: The active sanitizer's handle on the instrumentation bus.
_subscription: Optional[Any] = None


def enabled_by_env() -> bool:
    """Whether ``REPRO_SIMSAN`` requests an armed sanitizer."""
    return os.environ.get("REPRO_SIMSAN", "") not in ("", "0")


def arm() -> SimSanitizer:
    """Install (or return) the active sanitizer and hook the engine."""
    global _active, _subscription
    if _active is not None:
        return _active
    from repro.sim import instrument

    sanitizer = SimSanitizer()
    _subscription = instrument.subscribe(sanitizer.register, sanitizer.after_event)
    _active = sanitizer
    return sanitizer


def disarm() -> None:
    """Remove the active sanitizer and its engine hooks."""
    global _active, _subscription
    if _active is None:
        return
    from repro.sim import instrument

    instrument.unsubscribe(_subscription)
    _active = _subscription = None


def get_active() -> Optional[SimSanitizer]:
    return _active
