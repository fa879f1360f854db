"""Seeded, sim-clock-driven fault injection (the deterministic chaos layer).

``repro.faults`` turns the failure hooks scattered across the stack —
link/switch failures in :mod:`repro.net.simulator`, process crashes and
delay spikes in :mod:`repro.rpc.fabric`, monitoring loss in
:mod:`repro.core.stats` — into declarative, replayable experiments:

* :class:`FaultPlan` / :class:`FaultEvent` — a timed schedule of faults;
* :func:`build_storm` — draw a random storm from the dedicated ``faults``
  RNG stream (never perturbing workload randomness);
* :class:`FaultInjector` — arm a plan against a live cluster.
"""

from repro.faults.injector import AppliedEvent, FaultInjector
from repro.faults.plan import (
    EVENT_KINDS,
    FaultEvent,
    FaultPlan,
    RECOVERY_OF,
    StormSpec,
    build_storm,
)

__all__ = [
    "AppliedEvent",
    "EVENT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "RECOVERY_OF",
    "StormSpec",
    "build_storm",
]
