"""simlint configuration.

The rule inventory and the allowlists live here in code, so the linter
behaves the same wherever it runs.  The allowlists are the documented
escape hatches of the determinism contract:

* :data:`WALLCLOCK_ALLOW` — the only module permitted to read the wall
  clock: :mod:`repro.experiments.wallclock`, the clock seam the
  experiment CLI uses for its "regenerated in Ns" footer.
* :data:`RNG_ALLOW` — the only module permitted to construct raw
  ``random.Random`` objects or import the ``random`` module:
  :mod:`repro.sim.randomness`, where :class:`RandomStreams` and
  :func:`seeded_rng` live; every other module must receive an injected
  stream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Tuple

#: Every rule the linter knows, with a one-line description (also shown
#: by ``python -m repro.analysis --list-rules``).
ALL_RULES: Dict[str, str] = {
    "DET001": "wall-clock read outside the sanctioned clock seam",
    "DET002": "shared `random` module / raw RNG construction bypassing RandomStreams",
    "DET003": "iteration over an unordered set can leak order into results",
    "DET004": "float ==/!= comparison on rates/costs/shares",
    "RACE001": "generator caches shared mutable state across a yield point",
}

#: Path suffixes (posix style) where DET001 wall-clock reads are OK.
WALLCLOCK_ALLOW: Tuple[str, ...] = ("repro/experiments/wallclock.py",)

#: Path suffixes where DET002 allows the ``random`` module / Random().
RNG_ALLOW: Tuple[str, ...] = ("repro/sim/randomness.py",)

#: Terminal attribute names treated as shared mutable simulation state by
#: RACE001 (flow tables, FlowState fields, link rate maps).
RACE_ATTRS: FrozenSet[str] = frozenset(
    {
        "flows",
        "_flows",
        "active_flows",
        "rate_bps",
        "bw_bps",
        "remaining_bits",
        "freezed",
        "freeze_until",
        "tables",
        "_tables",
        "_link_index",
        "rates",
        "link_rates",
        "switch_missed_polls",
        "missed_poll_switches",
        "down_links",
    }
)

#: Identifier fragments that mark a value as a float rate/cost quantity
#: for DET004.
FLOAT_NAME_RE = re.compile(
    r"(?:^|_)(?:rate|rates|bps|bw|cost|costs|share|shares|util|utilization|"
    r"capacity|latency|delay|eta|throughput|bits)(?:_|$)"
)


def path_allowed(path: str, allowlist: Tuple[str, ...]) -> bool:
    posix = Path(path).as_posix()
    return any(posix.endswith(suffix) for suffix in allowlist)


@dataclass(frozen=True)
class SimlintConfig:
    """Which rules a lint run applies (``--select`` narrows the set)."""

    enabled_rules: FrozenSet[str] = frozenset(ALL_RULES)
