"""Fault plans: declarative, seeded schedules of failure events.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` objects on
the *simulated* clock.  Plans are plain data — building one performs no
side effects; :class:`repro.faults.injector.FaultInjector` arms a plan
against a live cluster.  Because event times are fixed and target choice
draws only from the dedicated ``faults`` RNG stream
(:data:`repro.sim.randomness.FAULTS_STREAM`), the same seed always yields
the same storm, and disabling faults leaves every other stream untouched.
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.net.topology import Topology

#: Fault kinds and the recovery kind each one pairs with (``None`` for
#: events that *are* recoveries, which need no counterpart).
RECOVERY_OF = {
    "link_down": "link_up",
    "link_up": None,
    "switch_fail": "switch_recover",
    "switch_recover": None,
    "dataserver_crash": "dataserver_restart",
    "dataserver_restart": None,
    "stats_poll_loss": "stats_poll_restore",
    "stats_poll_restore": None,
    "rpc_delay_spike": "rpc_delay_restore",
    "rpc_delay_restore": None,
    # Instantaneous: voids every primary lease the target host holds.
    # The host itself stays up — the adversarial case for write fencing,
    # where a live primary keeps trying to commit on revoked authority.
    "lease_expire": None,
}

EVENT_KINDS = frozenset(RECOVERY_OF)

#: RPC latency multiplier of a storm's ``rpc_delay_spike`` events.
_DELAY_SPIKE_FACTOR = 10.0


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure (or recovery).

    Parameters
    ----------
    time:
        Simulated seconds at which the event fires.
    kind:
        One of :data:`EVENT_KINDS`.
    target:
        What to hit: a link id (``"a->b"``) for link kinds, a switch id
        for switch kinds, a host id for ``dataserver_*`` and
        ``lease_expire``.  Empty for global events (``stats_poll_*``,
        ``rpc_delay_*``).
    duration:
        Convenience: when set on a failure kind, the paired recovery is
        scheduled automatically ``duration`` seconds later.
    magnitude:
        Multiplier for ``rpc_delay_spike`` (ignored elsewhere).
    """

    time: float
    kind: str
    target: str = ""
    duration: Optional[float] = None
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(EVENT_KINDS)}"
            )
        if self.duration is not None:
            if self.duration <= 0:
                raise ValueError(f"duration must be positive, got {self.duration}")
            if RECOVERY_OF[self.kind] is None:
                raise ValueError(
                    f"{self.kind!r} is a recovery event and takes no duration"
                )

    @property
    def recovery_kind(self) -> Optional[str]:
        return RECOVERY_OF[self.kind]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events, sorted by time."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.time, e.kind, e.target)))
        object.__setattr__(self, "events", ordered)

    def expanded(self) -> Tuple[FaultEvent, ...]:
        """Events plus auto-generated recoveries for timed failures."""
        out: List[FaultEvent] = []
        for event in self.events:
            out.append(event)
            if event.duration is not None:
                out.append(
                    FaultEvent(
                        time=event.time + event.duration,
                        kind=event.recovery_kind,
                        target=event.target,
                    )
                )
        return tuple(sorted(out, key=lambda e: (e.time, e.kind, e.target)))


@dataclass
class StormSpec:
    """Shape of a random fault storm (see :func:`build_storm`)."""

    start: float = 1.0
    window: float = 30.0
    link_failures: int = 2
    switch_failures: int = 1
    dataserver_crashes: int = 1
    stats_poll_outages: int = 1
    rpc_delay_spikes: int = 0
    #: Instantaneous lease revocations on random (unprotected) hosts —
    #: exercises write fencing: the still-live old primary must never
    #: commit again under its stale epoch.
    lease_expiries: int = 0
    mean_outage: float = 5.0
    #: Hosts that must never be crashed (e.g. the nameserver host when a
    #: single-instance nameserver would otherwise take the namespace with
    #: it for the whole run).
    protected_hosts: Sequence[str] = field(default_factory=tuple)


def build_storm(
    topology: "Topology",
    rng: Random,
    spec: Optional[StormSpec] = None,
) -> FaultPlan:
    """Draw a seeded storm over ``topology`` from the faults RNG stream.

    Every outage is timed (failures auto-schedule their recovery), so a
    storm always ends with the system fully healed — the postcondition the
    resilience benchmarks assert on.
    """
    spec = spec or StormSpec()
    events: List[FaultEvent] = []
    protected = set(spec.protected_hosts)

    def when() -> float:
        return spec.start + rng.uniform(0.0, spec.window)

    def outage() -> float:
        return max(0.5, rng.expovariate(1.0 / spec.mean_outage))

    host_ids = sorted(h for h in topology.hosts if h not in protected)
    switch_ids = sorted(topology.switches)
    # Only fail links between switches: host access links are covered by
    # dataserver crashes, and killing a protected host's only uplink would
    # defeat the protection.
    trunk_links = sorted(
        lid
        for lid, link in topology.links.items()
        if link.src in topology.switches and link.dst in topology.switches
    )

    for _ in range(spec.link_failures):
        events.append(
            FaultEvent(when(), "link_down", rng.choice(trunk_links), outage())
        )
    for _ in range(spec.switch_failures):
        events.append(
            FaultEvent(when(), "switch_fail", rng.choice(switch_ids), outage())
        )
    for _ in range(spec.dataserver_crashes):
        events.append(
            FaultEvent(when(), "dataserver_crash", rng.choice(host_ids), outage())
        )
    for _ in range(spec.stats_poll_outages):
        events.append(FaultEvent(when(), "stats_poll_loss", "", outage()))
    for _ in range(spec.rpc_delay_spikes):
        events.append(
            FaultEvent(
                when(),
                "rpc_delay_spike",
                "",
                outage(),
                magnitude=_DELAY_SPIKE_FACTOR,
            )
        )
    for _ in range(spec.lease_expiries):
        events.append(FaultEvent(when(), "lease_expire", rng.choice(host_ids)))
    return FaultPlan(tuple(events))
